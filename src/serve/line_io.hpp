#pragma once

// The line transport of every serve socket, client to daemon and daemon
// to worker: one send-all loop and one buffered reader of '\n'-framed
// lines.  A vanished peer is a false send or kClosed, never a SIGPIPE,
// and a signal that interrupts a wait resumes it with the rest of its
// timeout.  A reader given a max-line limit (the daemon's, facing
// untrusted clients) streams past over-long lines instead of buffering
// them.

#include <poll.h>
#include <sys/socket.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace megflood::serve {

enum class RecvStatus {
  kLine,     // a full line was returned
  kTimeout,  // nothing arrived within timeout_ms; the connection is fine
  kClosed,   // EOF or socket error: the peer is gone
  kWoken,    // the wake fd became readable first
  kTooLong,  // a line passed max_line; its bytes up to '\n' are dropped
};

// ::poll, resumed after EINTR with the rest of timeout_ms (negative waits
// forever).
int poll_resuming(pollfd* fds, nfds_t count, int timeout_ms);

// Sends `line` + '\n' on the socket `fd`.  False when the peer is gone or
// the kernel buffer stayed full (a stalled reader) for timeout_ms.
bool send_line(int fd, std::string_view line, int timeout_ms = -1);

// Splits one socket's bytes into lines; does not own the fd.
class LineReader {
 public:
  explicit LineReader(
      int fd = -1,
      std::size_t max_line = std::numeric_limits<std::size_t>::max())
      : fd_(fd), max_line_(max_line) {}
  int fd() const noexcept { return fd_; }
  // Points the reader at `fd` and drops any buffered bytes.
  void reset(int fd = -1) {
    fd_ = fd;
    buffer_.clear();
    discarding_ = false;
  }
  // Waits up to timeout_ms for the next line, stored in `out` without its
  // '\n'.  A readable `wake_fd` ends the wait with kWoken.  EOF amid a
  // line is kClosed, and the partial line is dropped.  A line longer than
  // max_line is one kTooLong, as soon as its length shows, and its bytes
  // are dropped up to and including its '\n'.
  RecvStatus read_line(int timeout_ms, std::string& out, int wake_fd = -1);

 private:
  int fd_;
  std::size_t max_line_;
  std::string buffer_;
  bool discarding_ = false;  // inside an over-long line, until its '\n'
};

// An address for ::bind or ::connect.
struct SocketAddress {
  sockaddr_storage storage{};
  socklen_t size = 0;
  int family() const noexcept { return storage.ss_family; }
  const sockaddr* get() const noexcept {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

// Throws std::runtime_error when `path` does not fit in sun_path.
SocketAddress unix_address(const std::string& path);
SocketAddress loopback_address(std::uint16_t port);  // 127.0.0.1

}  // namespace megflood::serve
