// The hlsprof serving daemon: a long-lived Unix-domain-socket server that
// owns ONE resident runner::Pool and ONE persistent DesignCache (optional
// disk tier) and executes manifest submissions from concurrent clients on
// them. Layering per connection:
//
//   reader thread (per connection)
//     parses newline-delimited JSON requests; answers ping/metrics
//     inline; hands submits to the admission queue (rejections are
//     answered immediately with a structured error)
//   AdmissionQueue
//     bounded FIFO with drain (see admission.hpp)
//   dispatcher threads (options.dispatchers of them)
//     pop admitted requests, run the manifest's batch on the shared
//     pool/cache, write the response line (canonical report bytes —
//     byte-identical to `hlsprof-run --canonical --json` for the same
//     manifest — plus a per-request telemetry delta)
//
// Drain (SIGTERM via drain_fd(), or a `shutdown` request): admission
// closes (late submits get "draining"), dispatchers finish everything
// already admitted, connections are shut down, serve() returns. Nothing
// admitted is dropped; the socket file is removed on the way out.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runner/design_cache.hpp"
#include "runner/pool.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"

namespace hlsprof::serve {

struct ServerOptions {
  /// Unix-domain socket path (must fit sockaddr_un; a stale file at the
  /// path is replaced). Required.
  std::string socket_path;
  /// Resident pool size; 0 = one worker per hardware thread.
  int workers = 0;
  /// Requests executed concurrently (each one's jobs still fan out over
  /// the shared pool). Must be >= 1.
  int dispatchers = 2;
  /// Max requests waiting for a dispatcher (see AdmissionQueue).
  std::size_t queue_capacity = 64;
  /// Non-empty: attach the persistent on-disk design store (shared with
  /// hlsprof-run and other daemons via atomic-rename writes).
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;
};

class Server {
 public:
  /// Binds and listens (throws hlsprof::Error on socket/cache failures);
  /// the socket exists — and clients can connect — when the constructor
  /// returns. Telemetry is enabled process-wide: the daemon is its own
  /// metrics endpoint.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Run dispatchers and the accept loop in the calling thread; returns
  /// after a requested drain fully completes (all admitted work done,
  /// connections closed, socket unlinked).
  void serve();

  /// Trigger a graceful drain from any thread. Also exposed as a file
  /// descriptor so a signal handler can trigger it with a 1-byte write —
  /// the only async-signal-safe option.
  void request_drain();
  int drain_fd() const { return drain_pipe_[1]; }

  const std::string& socket_path() const { return options_.socket_path; }
  const AdmissionQueue& admission() const { return admission_; }

 private:
  /// One client connection. Writers (reader thread for inline replies and
  /// rejections, dispatchers for submit responses) serialize on `mu`; the
  /// fd is closed exactly once, under `mu`, so a response racing a
  /// disconnect can never write into a recycled descriptor.
  struct Conn {
    std::mutex mu;
    int fd = -1;
  };

  void accept_loop();
  void dispatcher_loop();
  void connection_loop(std::shared_ptr<Conn> conn);
  void handle_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  void handle_submit(const std::shared_ptr<Conn>& conn, Request request);
  static void write_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line);
  static void close_conn(const std::shared_ptr<Conn>& conn);

  ServerOptions options_;
  runner::DesignCache cache_;
  std::unique_ptr<runner::Pool> pool_;
  AdmissionQueue admission_;
  int listen_fd_ = -1;
  int drain_pipe_[2] = {-1, -1};
  std::vector<std::thread> dispatchers_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace hlsprof::serve
