#pragma once

// Clients for the serve protocol, shared by the server tests and
// tools/megflood_load.
//
// LineClient is the minimal blocking transport: one connection, lines
// sent and received through serve/line_io.hpp, the transport every serve
// socket shares.  Connect, send and receive all take a timeout, so a hung
// or drop-injected daemon can never wedge a client or a test forever, and
// recv_line distinguishes "nothing arrived yet" (timeout) from "the
// server is gone" (closed).  A signal that interrupts a wait does not end
// it.  The daemon reads a connection's next request only once its answers
// to the earlier ones are sent, so a caller reads while it submits: a
// batch of requests sent before any read wedges once the sockets fill.
//
// RetryingClient (ISSUE 9) layers fault tolerance on top: connect and
// submit retry with exponential backoff + decorrelated jitter (seeded via
// util/rng — a fixed seed makes the backoff sequence deterministic in
// tests), `rejected` backpressure events are honored by waiting out the
// server's retry_after_ms hint and resubmitting, and a dropped connection
// is survived by reconnecting and resubmitting every pending job.
// Resubmission is idempotent by construction: results are keyed by
// canonical campaign identity, so a job whose first attempt completed
// server-side resolves from the cache, byte-identical.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "serve/line_io.hpp"
#include "util/rng.hpp"

namespace megflood::serve {

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();

  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  // Both throw std::runtime_error when the connection cannot be made
  // within timeout_ms (negative = wait forever).
  static LineClient connect_unix(const std::string& path,
                                 int timeout_ms = kDefaultTimeoutMs);
  static LineClient connect_tcp(std::uint16_t port,  // localhost
                                int timeout_ms = kDefaultTimeoutMs);

  bool connected() const noexcept { return reader_.fd() >= 0; }

  // Sends `line` + '\n'.  Returns false when the connection broke or the
  // kernel buffer stayed full past timeout_ms (a stalled reader).
  bool send_line(const std::string& line, int timeout_ms = kDefaultTimeoutMs);

  // The next received line (newline stripped), or nullopt on timeout /
  // EOF / error — `status`, when given, says which.  Buffers partial
  // reads across calls.
  std::optional<std::string> recv_line(int timeout_ms,
                                       RecvStatus* status = nullptr);

  void close();

  static constexpr int kDefaultTimeoutMs = 30000;

 private:
  explicit LineClient(int fd) : reader_(fd) {}

  LineReader reader_;  // owns its fd: close() closes it
};

struct RetryPolicy {
  int max_attempts = 8;  // connection attempts per reconnect cycle
  std::uint64_t base_backoff_ms = 50;
  std::uint64_t max_backoff_ms = 2000;
  std::uint64_t seed = 0;  // jitter stream; fixed seed = deterministic
  int connect_timeout_ms = LineClient::kDefaultTimeoutMs;
};

class RetryingClient {
 public:
  // `connect` produces a fresh connection (throws std::runtime_error on
  // failure) — e.g. [&]{ return LineClient::connect_unix(path); }.
  RetryingClient(std::function<LineClient()> connect, RetryPolicy policy);

  // Registers and sends one submit line whose job id is `id`; the line is
  // remembered (and resent after reconnects or queue_full rejections)
  // until a terminal event for `id` comes back through recv_event.
  // Returns false when the server stayed unreachable through a full
  // backoff cycle.
  bool submit(const std::string& id, const std::string& request_line);

  // The next server event for the caller.  Backpressure and transport
  // faults are absorbed internally: a `rejected` (queue_full/draining)
  // for a pending job schedules its resubmission max(retry_after_ms,
  // jittered backoff) after the rejection and reading goes on, so a run
  // of rejections waits once, not once per job; each resubmission goes
  // out when due, and a wait for the next line lasts at most until the
  // earliest one.  A closed connection reconnects and resubmits
  // everything pending.  A `queued` event for a pending job (it was
  // accepted) and a reconnect restart the backoff at base_backoff_ms; the
  // `queued` event also pulls every scheduled resend forward to at most
  // base_backoff_ms from then.
  // Terminal events (done/cancelled, or an error for a pending id)
  // unregister the job and are returned.  nullopt = timeout_ms elapsed,
  // or the server stayed unreachable through a backoff cycle.
  std::optional<std::string> recv_event(int timeout_ms);

  std::size_t pending() const noexcept { return pending_.size(); }
  std::uint64_t reconnects() const noexcept { return reconnects_; }
  std::uint64_t resubmits() const noexcept { return resubmits_; }
  std::uint64_t rejected_retries() const noexcept { return rejected_retries_; }

 private:
  bool reconnect_and_resubmit();
  void resend_due();
  std::uint64_t next_backoff_ms();
  void sleep_ms(std::uint64_t ms);

  std::function<LineClient()> connect_;
  RetryPolicy policy_;
  LineClient client_;
  std::map<std::string, std::string> pending_;  // job id -> submit line
  // Rejected jobs awaiting their resubmission: job id -> when it is due.
  std::map<std::string, std::chrono::steady_clock::time_point> resend_at_;
  Rng jitter_;
  std::uint64_t backoff_ms_;
  bool connected_once_ = false;
  std::uint64_t reconnects_ = 0;
  std::uint64_t resubmits_ = 0;
  std::uint64_t rejected_retries_ = 0;
};

}  // namespace megflood::serve
