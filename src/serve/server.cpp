#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "runner/job_event.hpp"
#include "runner/manifest.hpp"
#include "runner/report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::serve {

namespace {

/// Hard per-line cap: a request is one line, and no legitimate manifest
/// approaches this — anything bigger is a broken or hostile client.
constexpr std::size_t kMaxLineBytes = std::size_t(16) << 20;

std::string errno_text() { return std::strerror(errno); }

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), admission_(options_.queue_capacity) {
  HLSPROF_CHECK(!options_.socket_path.empty(),
                "serve: socket_path is required");
  HLSPROF_CHECK(options_.dispatchers >= 1, "serve: dispatchers must be >= 1");
  // The daemon is its own observability endpoint; counters must count.
  telemetry::Registry::global().enable(true);

  if (!options_.cache_dir.empty()) {
    cache_.attach_disk({options_.cache_dir, options_.cache_max_bytes});
  }
  pool_ = std::make_unique<runner::Pool>(
      runner::Pool::resolve_workers(options_.workers));

  if (::pipe(drain_pipe_) != 0) {
    fail("serve: pipe: " + errno_text());
  }

  const sockaddr_un addr = socket_address(options_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail("serve: socket: " + errno_text());
  // Replace a stale socket file (e.g. after a crash). A *live* daemon on
  // the same path loses its socket — run one daemon per path.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string what = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    fail("serve: bind " + options_.socket_path + ": " + what);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string what = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    fail("serve: listen: " + what);
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  for (int i = 0; i < 2; ++i) {
    if (drain_pipe_[i] >= 0) ::close(drain_pipe_[i]);
  }
}

void Server::request_drain() {
  const char byte = 1;
  // Best-effort: a full pipe means a drain is already pending.
  (void)!::write(drain_pipe_[1], &byte, 1);
}

void Server::serve() {
  for (int i = 0; i < options_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }

  accept_loop();

  // ---- drain: stop listening, finish admitted work, close clients ----
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());

  admission_.drain();
  for (auto& t : dispatchers_) t.join();
  dispatchers_.clear();

  {
    // Wake readers blocked in read(); they close their own fd on exit.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(conn_threads_);
  }
  for (auto& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) close_conn(conn);
    conns_.clear();
  }
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {drain_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("serve: poll: " + errno_text());
    }
    if (fds[1].revents != 0) return;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      fail("serve: accept: " + errno_text());
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn] { connection_loop(std::move(conn)); });
  }
}

void Server::dispatcher_loop() {
  auto& reg = telemetry::Registry::global();
  AdmissionQueue::Request request;
  while (admission_.pop(&request)) {
    reg.gauge("serve.queued", "requests")
        .set(double(admission_.stats().queued));
    request();
  }
}

void Server::connection_loop(std::shared_ptr<Conn> conn) {
  std::string acc;
  char buf[4096];
  for (;;) {
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      fd = conn->fd;
    }
    if (fd < 0) break;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;  // EOF or error: client is gone
    acc.append(buf, std::size_t(n));
    if (acc.size() > kMaxLineBytes) {
      write_line(conn, error_response(0, "bad_request",
                                      "request line exceeds 16 MiB"));
      break;
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = acc.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = acc.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) handle_line(conn, line);
    }
    acc.erase(0, start);
  }
  close_conn(conn);
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  auto& reg = telemetry::Registry::global();
  reg.counter("serve.requests").add(1);
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    reg.counter("serve.bad_requests").add(1);
    write_line(conn, error_response(0, "bad_request", e.what()));
    return;
  }
  switch (request.op) {
    case Request::Op::ping:
      write_line(conn, ping_response(request.id, build_info_string()));
      return;
    case Request::Op::metrics:
      write_line(conn, metrics_response(
                           request.id,
                           telemetry::snapshot_json(reg.snapshot())));
      return;
    case Request::Op::shutdown:
      write_line(conn, shutdown_response(request.id));
      request_drain();
      return;
    case Request::Op::submit: break;
  }

  reg.counter("serve.submits").add(1);
  const std::uint64_t id = request.id;
  const Reject verdict = admission_.submit(
      [this, conn, request = std::move(request)]() mutable {
        handle_submit(conn, std::move(request));
      });
  if (verdict != Reject::none) {
    const std::string detail =
        verdict == Reject::queue_full
            ? "queue capacity " + std::to_string(options_.queue_capacity) +
                  " reached; retry later"
            : "daemon is draining and admits no new work";
    write_line(conn, error_response(id, reject_name(verdict), detail));
  }
}

void Server::handle_submit(const std::shared_ptr<Conn>& conn,
                           Request request) {
  auto& reg = telemetry::Registry::global();
  const std::uint64_t t0 = reg.now_us();
  const telemetry::Snapshot before = reg.snapshot(false);

  runner::ManifestRun run;
  try {
    run = runner::parse_manifest(request.manifest);
  } catch (const std::exception& e) {
    reg.counter("serve.manifest_errors").add(1);
    write_line(conn, error_response(request.id, "manifest_error", e.what()));
    return;
  }

  // The daemon owns the cache and the pool; the manifest keeps its seed
  // and sweep (report content), but its worker/cache plumbing is ignored.
  run.options.cache = &cache_;
  run.options.cache_dir.clear();
  run.options.cache_max_bytes = 0;
  run.options.pool = pool_.get();

  // Watch submits stream one job event per finished job. write_line is
  // per-connection mutex-guarded, so events from concurrent workers never
  // tear; the final response below still ends the request.
  if (request.watch) {
    const std::uint64_t id = request.id;
    run.options.on_job_event = [this, &conn, id](const runner::JobEvent& e) {
      write_line(conn, runner::format_job_event(e, id));
    };
  }

  runner::BatchResult result;
  try {
    result = run.batch.run(run.options);
  } catch (const std::exception& e) {
    reg.counter("serve.internal_errors").add(1);
    write_line(conn, error_response(request.id, "internal", e.what()));
    return;
  }
  // Request-relative cache accounting: the daemon's shared cache makes
  // raw CacheStats window deltas depend on what other requests (or a
  // warm memory tier) did, which would break canonical byte-identity
  // with hlsprof-run's fresh per-run cache.
  runner::rebase_cache_stats(result);

  runner::ReportOptions ropts;
  ropts.canonical = true;
  ropts.label = run.label;
  const std::string report = runner::report_json(result, ropts);

  const telemetry::Snapshot after = reg.snapshot(false);
  const std::string delta =
      telemetry::snapshot_json(telemetry::snapshot_delta(before, after));

  reg.counter("serve.submit_ok").add(1);
  reg.histogram("serve.request_ms", telemetry::exp_bounds(1.0, 2.0, 16), "ms")
      .observe(double(reg.now_us() - t0) / 1e3);
  write_line(conn, submit_ok_response(
                       request.id, run.label, int(result.jobs.size()),
                       result.count(runner::JobStatus::ok), report, delta));
}

void Server::write_line(const std::shared_ptr<Conn>& conn,
                        const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->fd < 0) return;  // client already gone; response is moot
  // A failed send means the peer is gone. Shut down (don't close): the
  // reader thread may be blocked in read() on this fd — closing here could
  // let the kernel recycle the descriptor under it. The shutdown wakes the
  // reader, which performs the one close.
  if (!send_line(conn->fd, line)) ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

}  // namespace hlsprof::serve
