#pragma once

// The megflood_serve daemon body (ISSUE 8): a socket front-end over
// serve/scheduler.hpp.  Listens on a Unix-domain socket or localhost TCP,
// speaks the newline-delimited JSON protocol of serve/protocol.hpp, and
// serves every accepted connection on one thread that writes the
// connection's queued event lines, then reads its next request.  A slow
// client never blocks the scheduler: event emission only appends to the
// connection's outbox under its own leaf mutex.  Campaigns run in
// supervised worker subprocesses (serve/scheduler.hpp).
//
// Like run_driver, the server body lives in the library so tests can run
// a real daemon in-process (tests/test_serve_server.cpp) instead of only
// through a subprocess; tools/megflood_serve.cpp is a thin main wiring
// signal handlers to the same driver_cancel_flag() stop path.
//
// Shutdown (SIGINT/SIGTERM via the stop flag, or a client shutdown op)
// is a graceful drain: stop accepting, cancel all jobs (running trials
// finish and are recorded — a drain never tears a campaign mid-trial),
// resolve every pending sub-job as cancelled, flush each connection's
// outbox, then close.  serve() returning 0 means the drain completed.

#include <atomic>
#include <cstdint>
#include <string>

namespace megflood::serve {

struct ServerConfig {
  // Exactly one listening mode: a non-empty unix_path wins; otherwise
  // localhost TCP on tcp_port (0 = ephemeral, read back via port()).
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  // Worker processes, each supervised by one scheduler pool thread; 0 =
  // one per hardware thread.
  std::size_t workers = 0;
  // On-disk result-cache directory; empty = memory-only cache.
  std::string cache_dir;
  // A request line longer than this (bytes, excluding the newline) is
  // answered with an error event and discarded up to the next newline;
  // the connection survives.
  std::size_t max_line = 1 << 16;
  // Admission control (serve/scheduler.hpp): caps on queued sub-jobs,
  // globally and per client; 0 = unbounded.
  std::size_t max_queue = 0;
  std::size_t max_client_queue = 0;
  // Fault-injection spec (util/fault_injection.hpp grammar, including the
  // server-side drop/stallwrite/corrupt sites); empty = none.  A bad spec
  // makes the Server constructor throw std::invalid_argument.
  std::string inject;
  // The daemon's own executable, self-execed with --worker to run every
  // campaign (docs/serving.md#isolation--supervision).  Required: the
  // Server constructor throws std::invalid_argument without it.
  std::string worker_binary;
  // Per-job RLIMIT_AS budget for workers, MiB; 0 = unlimited.
  std::uint64_t worker_memory_mb = 0;
};

class ServerImpl;

class Server {
 public:
  // Binds and listens; throws std::runtime_error when the socket cannot
  // be set up.
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound TCP port (the ephemeral answer when config.tcp_port was 0);
  // 0 in Unix-socket mode.
  std::uint16_t port() const;

  // Interrupted campaigns found (as crash-recovery journals under
  // cache_dir) and re-queued at construction — a SIGKILLed predecessor's
  // unfinished work, resumed and completed in the background.
  std::size_t recovered_journals() const;

  // Runs the accept loop until `stop` becomes true or a client sends
  // shutdown, then drains gracefully.  Returns 0 on a clean drain.
  int serve(const std::atomic<bool>& stop);

  // Asynchronous shutdown request (same effect as the shutdown op).
  void request_shutdown();

 private:
  ServerImpl* impl_;
};

}  // namespace megflood::serve
