#include "serve/client.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/json.hpp"

namespace megflood::serve {

namespace {

// Non-blocking connect bounded by a poll: a listener that accepted the
// TCP handshake but never progresses (or a backlogged unix socket) times
// out instead of blocking the caller in ::connect forever.
int connect_with_timeout(const SocketAddress& address, int timeout_ms,
                         const std::string& target) {
  const int fd = ::socket(address.family(), SOCK_STREAM, 0);
  const auto fail = [&](const std::string& why) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("client: cannot connect to " + target + ": " +
                             why);
  };
  if (fd < 0) fail(std::strerror(errno));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail(std::strerror(errno));
  }
  if (::connect(fd, address.get(), address.size) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) fail(std::strerror(errno));
    pollfd poller{fd, POLLOUT, 0};
    const int ready = poll_resuming(&poller, 1, timeout_ms);
    if (ready == 0) fail("connect timed out");
    if (ready < 0) fail(std::strerror(errno));
    int error = 0;
    socklen_t error_size = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_size) != 0) {
      fail(std::strerror(errno));
    }
    if (error != 0) fail(std::strerror(error));
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) fail(std::strerror(errno));
  return fd;
}

}  // namespace

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : reader_(std::exchange(other.reader_, LineReader())) {}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    reader_ = std::exchange(other.reader_, LineReader());
  }
  return *this;
}

void LineClient::close() {
  if (reader_.fd() >= 0) ::close(reader_.fd());
  reader_.reset();
}

LineClient LineClient::connect_unix(const std::string& path, int timeout_ms) {
  return LineClient(
      connect_with_timeout(unix_address(path), timeout_ms, "'" + path + "'"));
}

LineClient LineClient::connect_tcp(std::uint16_t port, int timeout_ms) {
  return LineClient(connect_with_timeout(loopback_address(port), timeout_ms,
                                         "port " + std::to_string(port)));
}

bool LineClient::send_line(const std::string& line, int timeout_ms) {
  return serve::send_line(reader_.fd(), line, timeout_ms);
}

std::optional<std::string> LineClient::recv_line(int timeout_ms,
                                                 RecvStatus* status) {
  std::string line;
  const RecvStatus got = reader_.read_line(timeout_ms, line);
  if (status != nullptr) *status = got;
  if (got != RecvStatus::kLine) return std::nullopt;
  return line;
}

// ---------------------------------------------------------------------------
// RetryingClient
// ---------------------------------------------------------------------------

RetryingClient::RetryingClient(std::function<LineClient()> connect,
                               RetryPolicy policy)
    : connect_(std::move(connect)),
      policy_(policy),
      jitter_(policy.seed),
      backoff_ms_(policy.base_backoff_ms) {}

void RetryingClient::sleep_ms(std::uint64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Decorrelated jitter (exponential on average, randomized so a fleet of
// retrying clients does not re-dogpile the server in lockstep): each wait
// is uniform in [base, 3 * previous], capped.
std::uint64_t RetryingClient::next_backoff_ms() {
  const std::uint64_t lo = std::max<std::uint64_t>(1, policy_.base_backoff_ms);
  const std::uint64_t hi = std::max(lo + 1, 3 * backoff_ms_);
  backoff_ms_ = std::min(policy_.max_backoff_ms,
                         lo + jitter_.uniform_int(hi - lo));
  return backoff_ms_;
}

bool RetryingClient::reconnect_and_resubmit() {
  for (int attempt = 0; attempt < std::max(1, policy_.max_attempts);
       ++attempt) {
    if (attempt > 0) sleep_ms(next_backoff_ms());
    LineClient fresh;
    try {
      fresh = connect_();
    } catch (const std::runtime_error&) {
      continue;
    }
    if (!fresh.connected()) continue;
    client_ = std::move(fresh);
    const bool is_reconnect = connected_once_;
    if (is_reconnect) ++reconnects_;
    connected_once_ = true;
    backoff_ms_ = policy_.base_backoff_ms;  // healthy again: restart cheap
    resend_at_.clear();                     // every pending line goes now
    bool all_sent = true;
    for (const auto& [id, line] : pending_) {
      // Idempotent by campaign identity: a resubmitted job whose first
      // attempt already completed resolves from the result cache with the
      // exact same bytes.
      if (!client_.send_line(line)) {
        all_sent = false;
        break;
      }
      if (is_reconnect) ++resubmits_;
    }
    if (all_sent) return true;
    client_.close();
  }
  return false;
}

bool RetryingClient::submit(const std::string& id,
                            const std::string& request_line) {
  pending_[id] = request_line;
  if (client_.connected() && client_.send_line(request_line)) return true;
  client_.close();
  // reconnect_and_resubmit resends every pending line, including this one.
  if (reconnect_and_resubmit()) return true;
  pending_.erase(id);
  return false;
}

// Resubmits every rejected job whose resend time has come; a failed send
// closes the connection, and the reconnect then resends everything.
void RetryingClient::resend_due() {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = resend_at_.begin(); it != resend_at_.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    const auto job = pending_.find(it->first);
    it = resend_at_.erase(it);
    if (job != pending_.end() && !client_.send_line(job->second)) {
      client_.close();
      return;
    }
  }
}

std::optional<std::string> RetryingClient::recv_event(int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto started = std::chrono::steady_clock::now();
  const auto remaining = [&]() -> int {
    if (timeout_ms < 0) return -1;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    return static_cast<int>(
        std::max<long long>(0, timeout_ms - static_cast<long long>(elapsed)));
  };
  while (true) {
    if (!client_.connected() && !reconnect_and_resubmit()) return std::nullopt;
    resend_due();
    if (!client_.connected()) continue;
    // Read until the caller's timeout, or only until the earliest resend
    // is due when that comes first.
    int wait_ms = remaining();
    bool resend_first = false;
    if (!resend_at_.empty()) {
      auto due = resend_at_.begin()->second;
      for (const auto& entry : resend_at_) due = std::min(due, entry.second);
      const auto until_due = static_cast<int>(std::max<long long>(
          0, std::chrono::ceil<std::chrono::milliseconds>(due - Clock::now())
                 .count()));
      if (wait_ms < 0 || until_due < wait_ms) {
        wait_ms = until_due;
        resend_first = true;
      }
    }
    RecvStatus status = RecvStatus::kClosed;
    auto line = client_.recv_line(wait_ms, &status);
    if (status == RecvStatus::kTimeout) {
      if (resend_first) continue;
      return std::nullopt;
    }
    if (status == RecvStatus::kClosed) {
      client_.close();
      if (!reconnect_and_resubmit()) return std::nullopt;
      continue;
    }
    // One full event line.  Peek at it just enough to absorb backpressure
    // and to notice terminal events for pending jobs.
    std::string parse_error;
    const auto parsed = parse_json(*line, parse_error);
    if (!parsed || !parsed->is_object()) return line;
    const JsonValue* event = parsed->find("event");
    if (event == nullptr || !event->is_string()) return line;
    const JsonValue* id_field = parsed->find("id");
    const std::string id =
        (id_field != nullptr && id_field->is_string()) ? id_field->string : "";
    if (event->string == "rejected" && pending_.count(id) != 0) {
      const JsonValue* reason = parsed->find("reason");
      const bool retryable =
          reason != nullptr && reason->is_string() &&
          (reason->string == "queue_full" || reason->string == "draining");
      if (retryable) {
        const JsonValue* hint = parsed->find("retry_after_ms");
        const std::uint64_t hint_ms =
            (hint != nullptr && hint->is_number() && hint->number > 0)
                ? static_cast<std::uint64_t>(hint->number)
                : 0;
        ++rejected_retries_;
        resend_at_[id] = Clock::now() + std::chrono::milliseconds(std::max(
                                            hint_ms, next_backoff_ms()));
        continue;
      }
      pending_.erase(id);  // too_large: permanent, surface to the caller
      return line;
    }
    if (event->string == "queued" && pending_.count(id) != 0) {
      // Accepted: the queue has room again, so the next rejection starts
      // the backoff over instead of waiting near max_backoff_ms, and the
      // resends already scheduled go out within one base backoff rather
      // than at due times set while the queue was full.
      backoff_ms_ = policy_.base_backoff_ms;
      const auto latest =
          Clock::now() + std::chrono::milliseconds(policy_.base_backoff_ms);
      for (auto& entry : resend_at_) {
        entry.second = std::min(entry.second, latest);
      }
    }
    if (event->string == "done" || event->string == "cancelled" ||
        event->string == "failed" ||
        (event->string == "error" && !id.empty())) {
      pending_.erase(id);
      resend_at_.erase(id);
    }
    return line;
  }
}

}  // namespace megflood::serve
