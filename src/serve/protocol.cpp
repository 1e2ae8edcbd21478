#include "serve/protocol.hpp"

#include "common/error.hpp"
#include "common/json.hpp"

namespace hlsprof::serve {

namespace {

std::uint64_t opt_u64(const JsonValue& v, const char* key,
                      std::uint64_t fallback) {
  const JsonValue* f = v.find(key);
  if (f == nullptr) return fallback;
  const std::int64_t n = f->as_int64();
  if (n < 0) fail(std::string("protocol: \"") + key + "\" must be >= 0");
  return std::uint64_t(n);
}

int opt_int(const JsonValue& v, const char* key, int fallback) {
  const JsonValue* f = v.find(key);
  return f == nullptr ? fallback : int(f->as_int64());
}

std::string opt_str(const JsonValue& v, const char* key,
                    const std::string& fallback) {
  const JsonValue* f = v.find(key);
  return f == nullptr ? fallback : f->as_string();
}

const char* op_name(Request::Op op) {
  switch (op) {
    case Request::Op::submit: return "submit";
    case Request::Op::metrics: return "metrics";
    case Request::Op::ping: return "ping";
    case Request::Op::shutdown: return "shutdown";
  }
  return "?";
}

}  // namespace

Request parse_request(const std::string& line) {
  const JsonValue v = json_parse(line);
  if (!v.is_object()) fail("protocol: request is not a JSON object");
  const JsonValue* op = v.find("op");
  if (op == nullptr) fail("protocol: request has no \"op\"");
  Request out;
  const std::string& name = op->as_string();
  if (name == "submit") {
    out.op = Request::Op::submit;
    const JsonValue* manifest = v.find("manifest");
    if (manifest == nullptr) {
      fail("protocol: submit request has no \"manifest\"");
    }
    out.manifest = manifest->as_string();
    out.client = opt_str(v, "client", "anonymous");
    if (out.client.empty()) fail("protocol: \"client\" must be non-empty");
    out.priority = opt_int(v, "priority", 0);
    const JsonValue* watch = v.find("watch");
    out.watch = watch != nullptr && watch->as_bool();
  } else if (name == "metrics") {
    out.op = Request::Op::metrics;
  } else if (name == "ping") {
    out.op = Request::Op::ping;
  } else if (name == "shutdown") {
    out.op = Request::Op::shutdown;
  } else {
    fail("protocol: unknown op \"" + name + "\"");
  }
  out.id = opt_u64(v, "id", 0);
  return out;
}

std::string request_line(const Request& request) {
  JsonWriter w;
  w.begin_object();
  w.field("op", op_name(request.op));
  w.field("id", request.id);
  if (request.op == Request::Op::submit) {
    w.field("client", request.client);
    w.field("priority", request.priority);
    if (request.watch) w.field("watch", true);
    w.field("manifest", request.manifest);
  }
  w.end_object();
  return w.str();
}

std::string submit_ok_response(std::uint64_t id, const std::string& label,
                               int jobs, int ok_jobs,
                               const std::string& report_json,
                               const std::string& telemetry_json) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("label", label);
  w.field("jobs", jobs);
  w.field("ok_jobs", ok_jobs);
  w.field("report", report_json);
  w.field("telemetry", telemetry_json);
  w.end_object();
  return w.str();
}

std::string error_response(std::uint64_t id, const std::string& code,
                           const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", false);
  w.field("error", code);
  w.field("message", message);
  w.end_object();
  return w.str();
}

std::string metrics_response(std::uint64_t id,
                             const std::string& snapshot_json) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("metrics", snapshot_json);
  w.end_object();
  return w.str();
}

std::string ping_response(std::uint64_t id, const std::string& build) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("pong", true);
  w.field("build", build);
  w.end_object();
  return w.str();
}

std::string shutdown_response(std::uint64_t id) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("draining", true);
  w.end_object();
  return w.str();
}

Response parse_response(const std::string& line) {
  const JsonValue v = json_parse(line);
  if (!v.is_object()) fail("protocol: response is not a JSON object");
  Response out;
  out.id = opt_u64(v, "id", 0);
  const JsonValue* ok = v.find("ok");
  if (ok == nullptr) fail("protocol: response has no \"ok\"");
  out.ok = ok->as_bool();
  out.error = opt_str(v, "error", "");
  out.message = opt_str(v, "message", "");
  out.label = opt_str(v, "label", "");
  out.jobs = opt_int(v, "jobs", 0);
  out.ok_jobs = opt_int(v, "ok_jobs", 0);
  out.report = opt_str(v, "report", "");
  out.telemetry = opt_str(v, "telemetry", "");
  out.metrics = opt_str(v, "metrics", "");
  out.build = opt_str(v, "build", "");
  const JsonValue* draining = v.find("draining");
  out.draining = draining != nullptr && draining->as_bool();
  return out;
}

}  // namespace hlsprof::serve
