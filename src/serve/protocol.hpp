// Wire protocol of the hlsprof serving daemon: newline-delimited JSON
// over a Unix-domain stream socket. Every message — request or response —
// is exactly one JSON object on one line (the JsonWriter never emits
// newlines; embedded documents like manifests and reports travel as
// escaped JSON strings, so arbitrary bytes round-trip exactly).
//
// Requests (client -> daemon):
//   {"op":"submit","id":7,"manifest":"workload = pi\n..."}
//   {"op":"submit","id":7,"watch":true,...}   -- stream job events
//   {"op":"metrics","id":8}
//   {"op":"ping","id":9}
//   {"op":"shutdown","id":10}
//
// A watch submit additionally streams one job event per finished job
// BEFORE the final submit response: the runner's job-event line
// (runner/job_event.hpp) with the request's "id" added, e.g.
//   {"id":7,"event":"job","index":1,"status":"ok","name":"pi n=1000000",
//    "cycles":231072,"threads":8,"state_cycles":[7210,1702113,0,39253],
//    "bytes":95488,"done":2,"jobs":3}
// Clients not watching never see events; a pipelining client matches
// them by "id" and keeps reading until a line that is not a job event.
//
// Responses (daemon -> client) always carry the request's "id" and "ok":
//   submit ok:  {"id":7,"ok":true,"label":"pi","jobs":3,"ok_jobs":3,
//                "report":"<canonical report JSON>",
//                "telemetry":"<hlsprof-telemetry delta JSON>"}
//   error:      {"id":7,"ok":false,"error":"queue_full",
//                "message":"queue capacity 64 reached"}
//   metrics:    {"id":8,"ok":true,"metrics":"<hlsprof-telemetry JSON>"}
//   ping:       {"id":9,"ok":true,"pong":true,"build":"<stamp>"}
//   shutdown:   {"id":10,"ok":true,"draining":true}
//
// Unknown request fields are ignored, so request lines from older clients
// that send retired fields are still served.
//
// Error codes ("error" field): bad_request, manifest_error, queue_full,
// draining, internal.
//
// A client that keeps one request in flight per connection reads
// responses in request order; a pipelining client must match on "id"
// (submit responses are written when the job finishes, so they can
// overtake each other and interleave with inline ping/metrics replies).
#pragma once

#include <sys/un.h>

#include <cstdint>
#include <string>

namespace hlsprof::serve {

struct Request {
  enum class Op { submit, metrics, ping, shutdown };
  Op op = Op::ping;
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::uint64_t id = 0;
  /// submit only: manifest text (the same format hlsprof-run reads).
  std::string manifest;
  /// submit only: stream one job event per finished job before the
  /// final response (the --watch channel).
  bool watch = false;
};

/// Parse one request line. Throws hlsprof::Error on malformed JSON,
/// unknown "op", or missing/ill-typed fields — the server turns that
/// into a "bad_request" error response.
Request parse_request(const std::string& line);

/// Serialize a request (client side). One line, no trailing newline.
std::string request_line(const Request& request);

// Response builders (one line, no trailing newline).
std::string submit_ok_response(std::uint64_t id, const std::string& label,
                               int jobs, int ok_jobs,
                               const std::string& report_json,
                               const std::string& telemetry_json);
std::string error_response(std::uint64_t id, const std::string& code,
                           const std::string& message);
std::string metrics_response(std::uint64_t id,
                             const std::string& snapshot_json);
std::string ping_response(std::uint64_t id, const std::string& build);
std::string shutdown_response(std::uint64_t id);

/// Parsed response, client side. Exactly the fields of the wire format;
/// absent fields are empty/zero.
struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::string error;    // rejection/error code when !ok
  std::string message;  // human-readable detail when !ok
  std::string label;
  int jobs = 0;
  int ok_jobs = 0;
  std::string report;     // canonical batch report bytes
  std::string telemetry;  // per-request telemetry delta JSON
  std::string metrics;    // full snapshot JSON (metrics op)
  std::string build;      // build stamp (ping op)
  bool draining = false;  // shutdown op
};

/// Parse one response line. Throws hlsprof::Error on malformed JSON.
Response parse_response(const std::string& line);

// ---- transport, shared by server and client ----

/// The Unix-domain address of `path`. Throws hlsprof::Error naming the
/// path when it does not fit sockaddr_un.
sockaddr_un socket_address(const std::string& path);

/// Send `line` plus its terminating newline on the stream socket `fd`,
/// retrying short writes and EINTR. Returns false, errno set, when the
/// peer is gone.
bool send_line(int fd, const std::string& line);

}  // namespace hlsprof::serve
