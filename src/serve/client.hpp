// Blocking client for the hlsprof serving daemon: connects to the Unix
// socket, sends one request line, reads one response line. Keeps exactly
// one request in flight per connection, so responses arrive in order and
// no id-matching is needed (the protocol supports pipelining for clients
// that want it — this one deliberately does not).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/error.hpp"
#include "runner/job_event.hpp"
#include "serve/protocol.hpp"

namespace hlsprof::serve {

/// Thrown when the daemon cannot be reached at all — the socket file is
/// missing (no daemon was ever started there) or nothing accepts on it
/// (the daemon died and left the file behind). Distinct from Error so
/// callers can give it a distinct exit code: "no daemon" is an
/// environment problem, not a request failure. The message always names
/// the socket path and the errno text.
class ConnectError : public Error {
 public:
  ConnectError(const std::string& what, std::string socket_path, int err)
      : Error(what), socket_path_(std::move(socket_path)), errno_(err) {}

  const std::string& socket_path() const { return socket_path_; }
  /// The failing errno (ENOENT: no socket file; ECONNREFUSED: socket
  /// file exists but nothing is listening).
  int saved_errno() const { return errno_; }

 private:
  std::string socket_path_;
  int errno_;
};

class Client {
 public:
  /// Connect to a daemon. Throws serve::ConnectError when the daemon is
  /// unreachable (missing socket / connection refused), hlsprof::Error
  /// on other setup failures.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Called once per streamed job event, in arrival order on the calling
  /// thread, with the raw line and its parse.
  using EventFn = std::function<void(const std::string& line,
                                     const runner::JobEvent& event)>;

  /// Submit a manifest; blocks until the batch finishes. A set `on_event`
  /// makes it a watch submit: the daemon streams one job event per
  /// finished job, each handed to `on_event`, before the final response
  /// this returns. `id` is echoed back by the daemon.
  Response submit(const std::string& manifest_text,
                  const EventFn& on_event = {}, std::uint64_t id = 0);
  Response metrics(std::uint64_t id = 0);
  Response ping(std::uint64_t id = 0);
  Response shutdown(std::uint64_t id = 0);

 private:
  /// Round-trip one inline request (metrics/ping/shutdown). Throws
  /// hlsprof::Error on a dropped connection or malformed response.
  Response call(Request::Op op, std::uint64_t id);
  void send(const Request& request);
  std::string read_line();

  int fd_ = -1;
  std::string acc_;  // bytes read past the last newline
};

}  // namespace hlsprof::serve
