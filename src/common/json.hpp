// Minimal JSON emission used by the batch-report layer, the job-event
// line and the telemetry exporters: a streaming writer that emits
// deterministic, valid, single-line JSON (keys in insertion order, %.17g
// doubles, full string escaping).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hlsprof {

/// Escape a string for inclusion inside JSON quotes (adds no quotes).
std::string json_escape(std::string_view s);

/// Stack-based writer: begin/end calls must nest correctly (checked with
/// exceptions in tests' favour — misuse throws hlsprof::Error).
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("jobs").begin_array();
///   ... w.value(42) ...
///   w.end_array().end_object();
///   std::string text = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; the next value/begin_* call is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(std::int64_t(v)); }
  JsonWriter& value(long long v) { return value(std::int64_t(v)); }
  JsonWriter& value(unsigned long long v) { return value(std::uint64_t(v)); }
  JsonWriter& value(double v);

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// The finished document. Throws if containers are still open.
  const std::string& str() const;

 private:
  enum class Ctx { array, object };
  void before_value();
  std::string out_;
  std::vector<Ctx> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
  bool done_ = false;
};

}  // namespace hlsprof
