#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

#include "common/log.h"

namespace graphpim {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(ch));
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) GP_THROW("cannot read '", path, "'");
  std::string out;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) GP_THROW("cannot read '", path, "'");
  return out;
}

void WriteTextFile(const std::string& path, std::string_view text) {
  WriteTextFile(path, std::span<const std::string_view>(&text, 1));
}

void WriteTextFile(const std::string& path,
                   std::span<const std::string_view> parts) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) GP_THROW("cannot open '", path, "' for writing");
  bool ok = true;
  for (const std::string_view part : parts) {
    ok = ok && std::fwrite(part.data(), 1, part.size(), f) == part.size();
  }
  if (std::fclose(f) != 0 || !ok) GP_THROW("cannot write '", path, "'");
}

}  // namespace graphpim
