// Key-value configuration store with typed accessors.
//
// Harness binaries accept "--key=value" command-line overrides; subsystem
// configuration structs are populated from a Config so every bench and test
// can tweak any knob without bespoke flag plumbing.
#ifndef GRAPHPIM_COMMON_CONFIG_H_
#define GRAPHPIM_COMMON_CONFIG_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace graphpim {

// Strict unsigned parse shared by the CLI and the grid spec: all of `val`
// must be one unsigned integer (decimal, 0x hex or 0 octal) with no sign,
// blank, trailing text or embedded NUL, and at most `max`. Throws SimError
// starting with `what` (e.g. "config key 'vertices'") otherwise.
std::uint64_t ParseUint(const std::string& what, const std::string& val,
                        std::uint64_t max = ~std::uint64_t{0});

// Signed twin of ParseUint: all of `val` must be one integer (an optional
// leading '-', then decimal, 0x hex or 0 octal digits) in [min, max].
std::int64_t ParseInt(const std::string& what, const std::string& val,
                      std::int64_t min, std::int64_t max);

// Strict floating-point twin of ParseUint: all of `val` must be one
// number as strtod reads it, with no blank, trailing text or embedded NUL,
// and it must be finite (nan, inf and overflowing values are rejected).
// Throws SimError starting with `what` otherwise.
double ParseDouble(const std::string& what, const std::string& val);

class Config {
 public:
  Config() = default;

  // Parses "--key=value" / "key=value" tokens; a token without '=' throws
  // SimError.
  static Config FromArgs(int argc, char** argv);

  // Sets or overrides a key.
  void Set(const std::string& key, const std::string& value);

  bool Has(const std::string& key) const;

  // Typed getters returning `def` when the key is absent. Malformed values
  // throw SimError (user error).
  std::string GetString(const std::string& key, const std::string& def) const;
  // GetInt parses strictly (see ParseInt); the default range is that of
  // int, the type every integer flag is stored in.
  std::int64_t GetInt(const std::string& key, std::int64_t def,
                      std::int64_t min = std::numeric_limits<int>::min(),
                      std::int64_t max = std::numeric_limits<int>::max()) const;
  // GetUint parses strictly (see ParseUint) and rejects values above `max`.
  std::uint64_t GetUint(const std::string& key, std::uint64_t def,
                        std::uint64_t max = ~std::uint64_t{0}) const;
  // GetDouble parses strictly (see ParseDouble).
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  // Validates that every present key is in `accepted`; throws SimError
  // naming the offending key and listing the accepted keys otherwise.
  // Drivers call this right after FromArgs so a typo'd flag produces an
  // actionable diagnostic instead of being silently ignored.
  void RequireKeys(const std::vector<std::string>& accepted) const;

  // Opens, without truncating, the file named by each of `keys` that is
  // present; throws SimError naming the key and path if one cannot be
  // opened for writing. Drivers call this before the first replay, so a
  // bad output path fails at once instead of after the whole run.
  void RequireWritable(const std::vector<std::string>& keys) const;

  // All key/value pairs in key order (for reproducibility banners).
  std::vector<std::pair<std::string, std::string>> Items() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_CONFIG_H_
