// Small string and text-file helpers used by config parsing, report
// printing and every tool's file output.
#ifndef GRAPHPIM_COMMON_STRING_UTIL_H_
#define GRAPHPIM_COMMON_STRING_UTIL_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace graphpim {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Removes leading/trailing whitespace.
std::string Trim(std::string_view s);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Escapes a string for embedding in a JSON string literal.
std::string JsonEscape(const std::string& s);

// The whole content of `path`. Throws SimError naming the path when it
// cannot be read.
std::string ReadTextFile(const std::string& path);

// Replaces the content of `path` with `text`. Throws SimError naming the
// path when it cannot be opened or fully written.
void WriteTextFile(const std::string& path, std::string_view text);
// The same for text in several parts, written in order without first
// joining them into one copy.
void WriteTextFile(const std::string& path,
                   std::span<const std::string_view> parts);

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_STRING_UTIL_H_
