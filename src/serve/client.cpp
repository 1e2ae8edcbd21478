#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace hlsprof::serve {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    fail("serve client: socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
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

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), acc_(std::move(other.acc_)) {
  other.fd_ = -1;
}

Response Client::call(const Request& request) {
  std::string line = request_line(request);
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      fail("serve client: send: " + std::string(strerror(errno)));
    }
    off += std::size_t(n);
  }
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
                        const std::string& client, int priority,
                        std::uint64_t id) {
  Request r;
  r.op = Request::Op::submit;
  r.id = id;
  r.client = client;
  r.priority = priority;
  r.manifest = manifest_text;
  return call(r);
}

Response Client::submit_watch(
    const std::string& manifest_text,
    const std::function<void(const std::string&, const runner::JobEvent&)>&
        on_event,
    const std::string& client, int priority, std::uint64_t id) {
  Request r;
  r.op = Request::Op::submit;
  r.id = id;
  r.client = client;
  r.priority = priority;
  r.manifest = manifest_text;
  r.watch = true;
  std::string line = request_line(r);
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      fail("serve client: send: " + std::string(strerror(errno)));
    }
    off += std::size_t(n);
  }
  for (;;) {
    const std::string reply = read_line();
    runner::JobEvent event;
    if (!runner::parse_job_event(reply, &event)) return parse_response(reply);
    if (on_event) on_event(reply, event);
  }
}

Response Client::metrics(std::uint64_t id) {
  Request r;
  r.op = Request::Op::metrics;
  r.id = id;
  return call(r);
}

Response Client::ping(std::uint64_t id) {
  Request r;
  r.op = Request::Op::ping;
  r.id = id;
  return call(r);
}

Response Client::shutdown(std::uint64_t id) {
  Request r;
  r.op = Request::Op::shutdown;
  r.id = id;
  return call(r);
}

}  // namespace hlsprof::serve
