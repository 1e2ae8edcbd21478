// Strict JSON reader for the tests: they parse the batch reports,
// telemetry snapshots and `--progress` lines the program writes with
// common/json.hpp's JsonWriter. Round trip is exact for strings:
// json_parse(JsonWriter output) recovers the original bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hlsprof {

/// Parsed JSON document node. Numbers are kept as doubles (plus an exact
/// int64 when the text was integral); object member order follows the
/// document.
class JsonValue {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }
  bool is_object() const { return kind_ == Kind::object; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_string() const { return kind_ == Kind::string; }
  bool is_number() const { return kind_ == Kind::number; }
  bool is_bool() const { return kind_ == Kind::boolean; }

  /// Typed accessors; throw hlsprof::Error on a kind mismatch.
  bool as_bool() const;
  double as_double() const;
  /// Throws unless the number was written as an integer that fits int64.
  std::int64_t as_int64() const;
  /// Throws unless the number was written as a non-negative integer that
  /// fits uint64. Exact for the full range — values above int64::max
  /// (e.g. 64-bit seeds) round-trip without the double detour.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* find(std::string_view key) const;

  // Construction (used by the parser).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_int(std::int64_t v);
  static JsonValue make_uint(std::uint64_t v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool int_exact_ = false;
  std::uint64_t uint_ = 0;
  bool uint_exact_ = false;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one JSON document. Strict: the whole input (minus surrounding
/// whitespace) must be consumed; malformed input throws hlsprof::Error
/// with a byte offset. Escapes (incl. \uXXXX and surrogate pairs) are
/// decoded to UTF-8.
JsonValue json_parse(std::string_view text);

}  // namespace hlsprof
