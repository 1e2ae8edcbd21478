#include "common/json.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace hlsprof {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += char(c);
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  HLSPROF_CHECK(!done_, "JsonWriter: document already complete");
  if (stack_.empty()) return;  // root value
  if (stack_.back() == Ctx::object) {
    HLSPROF_CHECK(key_pending_, "JsonWriter: object value without key()");
    key_pending_ = false;
  } else {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Ctx::object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  HLSPROF_CHECK(!stack_.empty() && stack_.back() == Ctx::object &&
                    !key_pending_,
                "JsonWriter: unbalanced end_object()");
  out_ += '}';
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Ctx::array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  HLSPROF_CHECK(!stack_.empty() && stack_.back() == Ctx::array,
                "JsonWriter: unbalanced end_array()");
  out_ += ']';
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  HLSPROF_CHECK(!stack_.empty() && stack_.back() == Ctx::object &&
                    !key_pending_,
                "JsonWriter: key() outside an object");
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  char buf[40];
  // %.17g round-trips every double and is deterministic across runs.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  if (stack_.empty()) done_ = true;
  return *this;
}

const std::string& JsonWriter::str() const {
  HLSPROF_CHECK(done_, "JsonWriter: document incomplete (open containers)");
  return out_;
}

}  // namespace hlsprof
