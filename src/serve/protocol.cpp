#include "serve/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/json.hpp"

namespace hlsprof::serve {

namespace {

// Optional fields: absent means 0 / empty.
std::uint64_t opt_u64(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  if (f == nullptr) return 0;
  const std::int64_t n = f->as_int64();
  if (n < 0) fail(std::string("protocol: \"") + key + "\" must be >= 0");
  return std::uint64_t(n);
}

int opt_int(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f == nullptr ? 0 : int(f->as_int64());
}

std::string opt_str(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f == nullptr ? std::string() : f->as_string();
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

/// A response object with its "id" and "ok" written; the caller adds the
/// rest and closes it.
JsonWriter response_head(std::uint64_t id, bool ok) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", ok);
  return w;
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
  out.id = opt_u64(v, "id");
  return out;
}

std::string request_line(const Request& request) {
  JsonWriter w;
  w.begin_object();
  w.field("op", op_name(request.op));
  w.field("id", request.id);
  if (request.op == Request::Op::submit) {
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
  JsonWriter w = response_head(id, true);
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
  JsonWriter w = response_head(id, false);
  w.field("error", code);
  w.field("message", message);
  w.end_object();
  return w.str();
}

std::string metrics_response(std::uint64_t id,
                             const std::string& snapshot_json) {
  JsonWriter w = response_head(id, true);
  w.field("metrics", snapshot_json);
  w.end_object();
  return w.str();
}

std::string ping_response(std::uint64_t id, const std::string& build) {
  JsonWriter w = response_head(id, true);
  w.field("pong", true);
  w.field("build", build);
  w.end_object();
  return w.str();
}

std::string shutdown_response(std::uint64_t id) {
  JsonWriter w = response_head(id, true);
  w.field("draining", true);
  w.end_object();
  return w.str();
}

Response parse_response(const std::string& line) {
  const JsonValue v = json_parse(line);
  if (!v.is_object()) fail("protocol: response is not a JSON object");
  Response out;
  out.id = opt_u64(v, "id");
  const JsonValue* ok = v.find("ok");
  if (ok == nullptr) fail("protocol: response has no \"ok\"");
  out.ok = ok->as_bool();
  out.error = opt_str(v, "error");
  out.message = opt_str(v, "message");
  out.label = opt_str(v, "label");
  out.jobs = opt_int(v, "jobs");
  out.ok_jobs = opt_int(v, "ok_jobs");
  out.report = opt_str(v, "report");
  out.telemetry = opt_str(v, "telemetry");
  out.metrics = opt_str(v, "metrics");
  out.build = opt_str(v, "build");
  const JsonValue* draining = v.find("draining");
  out.draining = draining != nullptr && draining->as_bool();
  return out;
}

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    fail("serve: socket path too long (" + std::to_string(path.size()) +
         " bytes, max " + std::to_string(sizeof addr.sun_path - 1) +
         "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += std::size_t(n);
  }
  return true;
}

}  // namespace hlsprof::serve
