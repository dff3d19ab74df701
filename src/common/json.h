// The one JSON reader. Sweep journals (--resume) go through ParseJson and
// every artifact graphpim_compare diffs through ForEachJsonLeaf, which
// parses with the same grammar but builds no tree.
//
// The grammar is RFC 8259: JSON numbers only (no nan, inf, hex, '+' or
// leading zeros), strings of valid UTF-8 without raw control characters,
// \uXXXX escapes decoded to UTF-8, and space, tab, CR and LF as the only
// whitespace. Nesting is bounded by kJsonMaxDepth, so a hostile file
// cannot exhaust the stack of the recursive descent.
#ifndef GRAPHPIM_COMMON_JSON_H_
#define GRAPHPIM_COMMON_JSON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace graphpim {

// Deepest array/object nesting ParseJson accepts. The repo's own
// artifacts nest at most five levels.
inline constexpr int kJsonMaxDepth = 64;

struct JsonValue {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };

  Kind kind = Kind::kNull;
  bool boolean = false;
  // The decoded string (kStr) or the raw number token (kNum): the caller
  // picks Num() or U64(), so a 64-bit seed never passes through a double.
  std::string text;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // in document order

  // The first member named `key`; nullptr when absent or not an object.
  const JsonValue* Get(std::string_view key) const;
  // The number as a double. Throws SimError unless kind is kNum.
  double Num() const;
  // The number as an unsigned 64-bit integer, read from the raw token.
  // Throws SimError unless it is a kNum made of decimal digits only that
  // fits in 64 bits.
  std::uint64_t U64() const;
};

// Parses all of `text` as one JSON value. Throws SimError
// "malformed JSON at offset N: expected ..." on a syntax error, on nesting
// deeper than kJsonMaxDepth and on anything but whitespace after the
// value.
JsonValue ParseJson(std::string_view text);

// Called with the dotted path of a scalar (null, bool, number or string)
// and the scalar itself.
using JsonLeafFn =
    std::function<void(const std::string& path, const JsonValue& leaf)>;

// Parses and rejects `text` exactly as ParseJson does, but keeps no tree:
// each scalar is handed to `on_leaf` in document order, with the object
// keys and array indices that lead to it joined by '.' ("traceEvents.3.dur";
// "" for a scalar document). Memory stays proportional to the nesting, so
// a Chrome trace of a million spans streams through.
void ForEachJsonLeaf(std::string_view text, const JsonLeafFn& on_leaf);

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_JSON_H_
