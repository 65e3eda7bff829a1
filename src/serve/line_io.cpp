#include "serve/line_io.hpp"

#include <netinet/in.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace megflood::serve {

int poll_resuming(pollfd* fds, nfds_t count, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  int ready;
  while ((ready = ::poll(fds, count, timeout_ms)) < 0 && errno == EINTR) {
    if (timeout_ms <= 0) continue;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    timeout_ms = static_cast<int>(std::max<long long>(0, left.count()));
  }
  return ready;
}

bool send_line(int fd, std::string_view line, int timeout_ms) {
  if (fd < 0) return false;
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line) += '\n';
  for (std::size_t sent = 0; sent < framed.size();) {
    const ssize_t got = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (got >= 0) {
      sent += static_cast<std::size_t>(got);
    } else if (errno != EINTR) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      pollfd poller{fd, POLLOUT, 0};
      if (poll_resuming(&poller, 1, timeout_ms) <= 0) return false;
    }
  }
  return true;
}

RecvStatus LineReader::read_line(int timeout_ms, std::string& out,
                                 int wake_fd) {
  if (fd_ < 0) return RecvStatus::kClosed;
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (discarding_) {
      // The rest of an over-long line: drop it, up to its newline.
      discarding_ = newline == std::string::npos;
      buffer_.erase(0, discarding_ ? newline : newline + 1);
      if (!discarding_) continue;
    } else if (newline != std::string::npos) {
      const bool fits = newline <= max_line_;
      if (fits) out.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return fits ? RecvStatus::kLine : RecvStatus::kTooLong;
    } else if (buffer_.size() > max_line_) {
      buffer_.clear();
      discarding_ = true;
      return RecvStatus::kTooLong;
    }
    // An endless wait that nothing can wake is the blocking read itself.
    if (timeout_ms >= 0 || wake_fd >= 0) {
      // poll() skips an entry whose fd is negative.
      pollfd pollers[2] = {{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
      const int ready = poll_resuming(pollers, 2, timeout_ms);
      if (ready == 0) return RecvStatus::kTimeout;
      if (ready < 0) return RecvStatus::kClosed;
      if (pollers[0].revents == 0) return RecvStatus::kWoken;
    }
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return RecvStatus::kClosed;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

SocketAddress unix_address(const std::string& path) {
  SocketAddress out;
  auto* address = reinterpret_cast<sockaddr_un*>(&out.storage);
  if (path.size() >= sizeof(address->sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  address->sun_family = AF_UNIX;
  std::memcpy(address->sun_path, path.c_str(), path.size() + 1);
  out.size = sizeof(sockaddr_un);
  return out;
}

SocketAddress loopback_address(std::uint16_t port) {
  SocketAddress out;
  auto* address = reinterpret_cast<sockaddr_in*>(&out.storage);
  address->sin_family = AF_INET;
  address->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address->sin_port = htons(port);
  out.size = sizeof(sockaddr_in);
  return out;
}

}  // namespace megflood::serve
