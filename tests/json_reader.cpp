#include "json_reader.hpp"

#include "common/error.hpp"

namespace hlsprof {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::boolean) fail("json: value is not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::number) fail("json: value is not a number");
  return num_;
}

std::int64_t JsonValue::as_int64() const {
  if (kind_ != Kind::number || !int_exact_) {
    fail("json: value is not an integer");
  }
  return int_;
}

std::uint64_t JsonValue::as_uint64() const {
  if (kind_ != Kind::number || !uint_exact_) {
    fail("json: value is not an unsigned integer");
  }
  return uint_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::string) fail("json: value is not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::array) fail("json: value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::object) fail("json: value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::boolean;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_number(double v) {
  // Deliberately NOT int-exact even for whole values: as_int64() is
  // reserved for numbers written as integers (make_int / an integral
  // token), so "2.0" can't silently pass for an id or a count.
  JsonValue out;
  out.kind_ = Kind::number;
  out.num_ = v;
  return out;
}

JsonValue JsonValue::make_int(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::number;
  out.num_ = double(v);
  out.int_ = v;
  out.int_exact_ = true;
  if (v >= 0) {
    out.uint_ = std::uint64_t(v);
    out.uint_exact_ = true;
  }
  return out;
}

JsonValue JsonValue::make_uint(std::uint64_t v) {
  JsonValue out;
  out.kind_ = Kind::number;
  out.num_ = double(v);
  out.uint_ = v;
  out.uint_exact_ = true;
  if (v <= std::uint64_t(INT64_MAX)) {
    out.int_ = std::int64_t(v);
    out.int_exact_ = true;
  }
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::string;
  out.str_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue out;
  out.kind_ = Kind::array;
  out.items_ = std::move(items);
  return out;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue out;
  out.kind_ = Kind::object;
  out.members_ = std::move(members);
  return out;
}

namespace {

/// Strict recursive-descent parser over a string_view. Depth-limited so
/// deeply nested input cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) err("trailing bytes after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void err(const std::string& what) const {
    fail("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) err(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) err("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        err("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        err("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        err("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += char(cp);
    } else if (cp < 0x800) {
      out += char(0xc0 | (cp >> 6));
      out += char(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += char(0xe0 | (cp >> 12));
      out += char(0x80 | ((cp >> 6) & 0x3f));
      out += char(0x80 | (cp & 0x3f));
    } else {
      out += char(0xf0 | (cp >> 18));
      out += char(0x80 | ((cp >> 12) & 0x3f));
      out += char(0x80 | ((cp >> 6) & 0x3f));
      out += char(0x80 | (cp & 0x3f));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= unsigned(c - '0');
      else if (c >= 'a' && c <= 'f') v |= unsigned(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= unsigned(c - 'A' + 10);
      else err("bad \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) err("unterminated string");
      const unsigned char c = (unsigned char)text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) err("unescaped control character in string");
      if (c != '\\') {
        out += char(c);
        ++pos_;
        continue;
      }
      ++pos_;
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: must pair with a low surrogate escape.
            if (!consume_literal("\\u")) err("unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xdc00 || lo > 0xdfff) err("bad low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            err("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: err("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    const std::size_t first_digit = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      digits = true;
    }
    if (!digits) err("bad number");
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (pos_ - first_digit > 1 && text_[first_digit] == '0') {
      err("bad number (leading zero)");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      bool frac = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) err("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      bool exp = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        exp = true;
      }
      if (!exp) err("bad number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      try {
        std::size_t used = 0;
        const long long v = std::stoll(token, &used);
        if (used == token.size()) return JsonValue::make_int(v);
      } catch (const std::exception&) {
        // Falls through to the uint64/double paths (out of int64 range).
      }
      if (token[0] != '-') {
        // Non-negative integers above int64::max (64-bit seeds, hashes)
        // stay exact instead of degrading to the double path.
        try {
          std::size_t used = 0;
          const unsigned long long v = std::stoull(token, &used);
          if (used == token.size()) return JsonValue::make_uint(v);
        } catch (const std::exception&) {
          // Out of uint64 range too: a plain double below.
        }
      }
    }
    try {
      return JsonValue::make_number(std::stod(token));
    } catch (const std::exception&) {
      err("bad number");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace hlsprof
