#include "common/config.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "common/string_util.h"

namespace graphpim {

Config Config::FromArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (StartsWith(tok, "--")) tok = tok.substr(2);
    auto eq = tok.find('=');
    if (eq == std::string::npos) {
      GP_THROW("malformed argument '", argv[i], "' (expected key=value)");
    }
    cfg.Set(Trim(tok.substr(0, eq)), Trim(tok.substr(eq + 1)));
  }
  return cfg;
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string Config::GetString(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::uint64_t ParseUint(const std::string& what, const std::string& val,
                        std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(val.c_str(), &end, 0);
  // strtoull skips blanks and wraps a leading minus sign, so the first
  // character must be a digit; the end check also catches an embedded NUL.
  if (val.empty() || std::isdigit(static_cast<unsigned char>(val[0])) == 0 ||
      end != val.c_str() + val.size()) {
    GP_THROW(what, ": '", val, "' is not an unsigned integer");
  }
  if (errno == ERANGE || v > max) {
    GP_THROW(what, ": ", val, " is above its maximum ", max);
  }
  return v;
}

std::int64_t ParseInt(const std::string& what, const std::string& val,
                      std::int64_t min, std::int64_t max) {
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(val.c_str(), &end, 0);
  // As in ParseUint: no blank or '+' before the digits, nothing after them.
  const std::size_t digit = !val.empty() && val[0] == '-' ? 1 : 0;
  if (val.size() <= digit ||
      std::isdigit(static_cast<unsigned char>(val[digit])) == 0 ||
      end != val.c_str() + val.size()) {
    GP_THROW(what, ": '", val, "' is not an integer");
  }
  if (errno == ERANGE || v < min || v > max) {
    GP_THROW(what, ": ", val, " is out of range [", min, ", ", max, "]");
  }
  return v;
}

double ParseDouble(const std::string& what, const std::string& val) {
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  // As in ParseUint: strtod skips leading blanks, and the end check also
  // catches an embedded NUL.
  if (val.empty() || std::isspace(static_cast<unsigned char>(val[0])) != 0 ||
      end != val.c_str() + val.size()) {
    GP_THROW(what, ": '", val, "' is not a number");
  }
  if (!std::isfinite(v)) GP_THROW(what, ": '", val, "' is not finite");
  return v;
}

std::int64_t Config::GetInt(const std::string& key, std::int64_t def,
                            std::int64_t min, std::int64_t max) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return ParseInt("config key '" + key + "'", it->second, min, max);
}

std::uint64_t Config::GetUint(const std::string& key, std::uint64_t def,
                              std::uint64_t max) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return ParseUint("config key '" + key + "'", it->second, max);
}

double Config::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return ParseDouble("config key '" + key + "'", it->second);
}

bool Config::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  GP_THROW("config key '", key, "': '", v, "' is not a boolean");
}

void Config::RequireKeys(const std::vector<std::string>& accepted) const {
  for (const auto& [key, value] : values_) {
    bool known = false;
    for (const std::string& a : accepted) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string list;
      for (const std::string& a : accepted) {
        if (!list.empty()) list += "|";
        list += a;
      }
      GP_THROW("unknown option '--", key, "' (accepted: ", list, ")");
    }
  }
}

void Config::RequireWritable(const std::vector<std::string>& keys) const {
  for (const std::string& key : keys) {
    auto it = values_.find(key);
    if (it == values_.end()) continue;
    std::FILE* f = std::fopen(it->second.c_str(), "a");
    if (f == nullptr) {
      GP_THROW("config key '", key, "': cannot open '", it->second,
               "' for writing");
    }
    std::fclose(f);
  }
}

std::vector<std::pair<std::string, std::string>> Config::Items() const {
  return {values_.begin(), values_.end()};
}

}  // namespace graphpim
