#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace hlsprof::serve {

Client::Client(const std::string& socket_path) {
  const sockaddr_un addr = socket_address(socket_path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) fail("serve client: socket: " + std::string(strerror(errno)));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    std::string hint;
    if (err == ENOENT) {
      hint = " (no socket file — is hlsprof-serve running, and is this the "
             "path it was given?)";
    } else if (err == ECONNREFUSED) {
      hint = " (socket file exists but nothing is listening — stale file "
             "from a dead daemon?)";
    }
    throw ConnectError("serve client: cannot connect to daemon at " +
                           socket_path + ": " + strerror(err) + hint,
                       socket_path, err);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send(const Request& request) {
  if (!send_line(fd_, request_line(request))) {
    fail("serve client: send: " + std::string(strerror(errno)));
  }
}

Response Client::call(Request::Op op, std::uint64_t id) {
  Request r;
  r.op = op;
  r.id = id;
  send(r);
  return parse_response(read_line());
}

std::string Client::read_line() {
  for (;;) {
    const std::size_t nl = acc_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = acc_.substr(0, nl);
      acc_.erase(0, nl + 1);
      return line;
    }
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      fail("serve client: connection closed while waiting for a response");
    }
    acc_.append(buf, std::size_t(n));
  }
}

Response Client::submit(const std::string& manifest_text,
                        const EventFn& on_event, std::uint64_t id) {
  Request r;
  r.op = Request::Op::submit;
  r.id = id;
  r.manifest = manifest_text;
  r.watch = bool(on_event);
  send(r);
  for (;;) {
    const std::string reply = read_line();
    runner::JobEvent event;
    if (!r.watch || !runner::parse_job_event(reply, &event)) {
      return parse_response(reply);
    }
    on_event(reply, event);
  }
}

Response Client::metrics(std::uint64_t id) {
  return call(Request::Op::metrics, id);
}

Response Client::ping(std::uint64_t id) {
  return call(Request::Op::ping, id);
}

Response Client::shutdown(std::uint64_t id) {
  return call(Request::Op::shutdown, id);
}

}  // namespace hlsprof::serve
