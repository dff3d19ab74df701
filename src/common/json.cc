#include "common/json.h"

#include <charconv>
#include <cstdlib>

#include "common/log.h"

namespace graphpim {

namespace {

void AppendUtf8(std::uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
    return;
  }
  if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
  } else {
    if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    }
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
  }
  *out += static_cast<char>(0x80 | (cp & 0x3F));
}

// Builds a JsonValue tree, or, given an `on_leaf` callback, hands each
// scalar to it with its dotted path and keeps no containers.
class Parser {
 public:
  Parser(std::string_view s, const JsonLeafFn* on_leaf)
      : s_(s), on_leaf_(on_leaf) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue(0);
    SkipWs();
    if (pos_ != s_.size()) Fail("the end of the input");
    return v;
  }

 private:
  using Kind = JsonValue::Kind;

  [[noreturn]] void Fail(const char* what) const {
    GP_THROW("malformed JSON at offset ", pos_, ": expected ", what);
  }

  // Consumes `c` when it is the next byte.
  bool Take(char c) {
    if (pos_ == s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void SkipWs() {
    while (Take(' ') || Take('\t') || Take('\n') || Take('\r')) {
    }
  }

  // Consumes `c` when it is the next byte after whitespace.
  bool Eat(char c) {
    SkipWs();
    return Take(c);
  }

  // `depth` counts the arrays and objects that enclose the value.
  JsonValue ParseValue(int depth) {
    SkipWs();
    if (pos_ == s_.size()) Fail("a value");
    JsonValue v;
    switch (s_[pos_]) {
      case '{':
      case '[':
        if (depth == kJsonMaxDepth) {
          GP_THROW("malformed JSON at offset ", pos_, ": expected at most ",
                   kJsonMaxDepth, " levels of nesting");
        }
        if (s_[pos_] == '{') {
          ParseObject(depth + 1, &v);
        } else {
          ParseArray(depth + 1, &v);
        }
        break;
      case '"':
        v.kind = Kind::kStr;
        v.text = ParseString();
        break;
      case 't':
        Literal("true");
        v.kind = Kind::kBool;
        v.boolean = true;
        break;
      case 'f':
        Literal("false");
        v.kind = Kind::kBool;
        break;
      case 'n':
        Literal("null");
        break;
      default:
        v.kind = Kind::kNum;
        v.text = ParseNumber();
    }
    if (on_leaf_ != nullptr && v.kind != Kind::kObj && v.kind != Kind::kArr) {
      (*on_leaf_)(path_, v);
    }
    return v;
  }

  // Leaf mode: parses a member or element value, which is not stored,
  // with `step` appended to path_.
  void ParseLeaves(int depth, std::string_view step) {
    const std::size_t len = path_.size();
    if (len != 0) path_ += '.';
    path_ += step;
    ParseValue(depth);
    path_.resize(len);
  }

  void ParseObject(int depth, JsonValue* v) {
    Take('{');
    v->kind = Kind::kObj;
    if (Eat('}')) return;
    do {
      SkipWs();
      if (pos_ == s_.size() || s_[pos_] != '"') Fail("an object key");
      std::string key = ParseString();
      if (!Eat(':')) Fail("':'");
      if (on_leaf_ != nullptr) {
        ParseLeaves(depth, key);
      } else {
        v->obj.emplace_back(std::move(key), ParseValue(depth));
      }
    } while (Eat(','));
    if (!Eat('}')) Fail("',' or '}'");
  }

  void ParseArray(int depth, JsonValue* v) {
    Take('[');
    v->kind = Kind::kArr;
    if (Eat(']')) return;
    std::size_t index = 0;
    do {
      if (on_leaf_ != nullptr) {
        ParseLeaves(depth, std::to_string(index++));
      } else {
        v->arr.push_back(ParseValue(depth));
      }
    } while (Eat(','));
    if (!Eat(']')) Fail("',' or ']'");
  }

  void Literal(const char* lit) {
    const std::string_view want(lit);
    if (s_.substr(pos_, want.size()) != want) Fail(lit);
    pos_ += want.size();
  }

  std::string ParseNumber() {
    const std::size_t start = pos_;
    auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > from;
    };
    Take('-');
    if (!Take('0') && !digits()) Fail("a value");
    if (Take('.') && !digits()) Fail("a digit after '.'");
    if (Take('e') || Take('E')) {
      if (!Take('+')) Take('-');
      if (!digits()) Fail("an exponent digit");
    }
    return std::string(s_.substr(start, pos_ - start));
  }

  std::string ParseString() {
    Take('"');
    std::string out;
    while (!Take('"')) {
      if (pos_ == s_.size()) Fail("a closing '\"'");
      const auto c = static_cast<unsigned char>(s_[pos_]);
      if (c < 0x20) Fail("control characters to be escaped");
      if (Take('\\')) {
        ParseEscape(&out);
      } else if (c >= 0x80) {
        CopyUtf8Sequence(&out);
      } else {
        out += static_cast<char>(c);
        ++pos_;
      }
    }
    return out;
  }

  void ParseEscape(std::string* out) {
    static constexpr std::string_view kFrom = "\"\\/bfnrt";
    static constexpr std::string_view kTo = "\"\\/\b\f\n\r\t";
    const std::size_t at =
        pos_ < s_.size() ? kFrom.find(s_[pos_]) : std::string_view::npos;
    if (at != std::string_view::npos) {
      *out += kTo[at];
      ++pos_;
      return;
    }
    if (!Take('u')) Fail("a valid escape");
    std::uint32_t cp = Hex4();
    if (cp >= 0xDC00 && cp < 0xE000) Fail("a high surrogate before a low one");
    if (cp >= 0xD800 && cp < 0xDC00) {
      // A surrogate pair: two escapes encode one code point.
      if (!Take('\\') || !Take('u')) Fail("a low surrogate escape");
      const std::uint32_t lo = Hex4();
      if (lo < 0xDC00 || lo >= 0xE000) Fail("a low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    AppendUtf8(cp, out);
  }

  std::uint32_t Hex4() {
    std::uint32_t cp = 0;
    const char* p = s_.data() + pos_;
    if (s_.size() - pos_ < 4 || std::from_chars(p, p + 4, cp, 16).ptr != p + 4) {
      Fail("four hex digits");
    }
    pos_ += 4;
    return cp;
  }

  // Copies one raw multi-byte UTF-8 sequence, rejecting stray continuation
  // bytes, truncated sequences and overlong or surrogate encodings (the
  // well-formed byte ranges of RFC 3629 section 4).
  void CopyUtf8Sequence(std::string* out) {
    auto byte = [&](std::size_t i) -> unsigned {
      return pos_ + i < s_.size() ? static_cast<unsigned char>(s_[pos_ + i])
                                  : 0u;
    };
    const unsigned lead = byte(0);
    std::size_t n = 0;
    unsigned lo = 0x80;  // allowed range of the second byte
    unsigned hi = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
      n = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      n = 3;
      if (lead == 0xE0) lo = 0xA0;
      if (lead == 0xED) hi = 0x9F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      n = 4;
      if (lead == 0xF0) lo = 0x90;
      if (lead == 0xF4) hi = 0x8F;
    } else {
      Fail("valid UTF-8");
    }
    for (std::size_t i = 1; i < n; ++i) {
      if (byte(i) < lo || byte(i) > hi) Fail("valid UTF-8");
      lo = 0x80;
      hi = 0xBF;
    }
    out->append(s_.substr(pos_, n));
    pos_ += n;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  const JsonLeafFn* on_leaf_;  // null: build the tree
  std::string path_;           // leaf mode: dotted path of the current value
};

}  // namespace

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::Num() const {
  if (kind != Kind::kNum) GP_THROW("JSON value is not a number");
  return std::strtod(text.c_str(), nullptr);
}

std::uint64_t JsonValue::U64() const {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (kind != Kind::kNum || ec != std::errc() || p != end) {
    GP_THROW("JSON value '", text, "' is not an unsigned 64-bit integer");
  }
  return v;
}

JsonValue ParseJson(std::string_view text) {
  return Parser(text, nullptr).ParseDocument();
}

void ForEachJsonLeaf(std::string_view text, const JsonLeafFn& on_leaf) {
  Parser(text, &on_leaf).ParseDocument();
}

}  // namespace graphpim
