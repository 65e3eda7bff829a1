// The serve layer's line transport (serve/line_io.hpp) over socketpairs:
// framing across reads, the max-line limit, EOF, timeouts, the wake fd, a
// send to a stalled reader, and waits that a signal interrupts.  The last
// group drives LineClient over a real unix socket, as the daemon's
// clients use it.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/line_io.hpp"

namespace megflood::serve {
namespace {

using Clock = std::chrono::steady_clock;

long long ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_writer() {
    ::close(fds[1]);
    fds[1] = -1;
  }
  void write_raw(const std::string& bytes) const {
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  int fds[2] = {-1, -1};  // [0] reads, [1] writes
};

TEST(LineIo, SeveralLinesInOneRead) {
  SocketPair pair;
  pair.write_raw("alpha\nbeta\n\ngamma\n");
  LineReader reader(pair.fds[0]);
  std::string line;
  for (const char* expected : {"alpha", "beta", "", "gamma"}) {
    ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
    EXPECT_EQ(line, expected);
  }
  EXPECT_EQ(reader.read_line(0, line), RecvStatus::kTimeout);
}

TEST(LineIo, LineSplitAcrossReads) {
  SocketPair pair;
  LineReader reader(pair.fds[0]);
  std::string line;
  pair.write_raw("hel");
  EXPECT_EQ(reader.read_line(20, line), RecvStatus::kTimeout);
  pair.write_raw("lo\nwor");
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "hello");
  pair.write_raw("ld\n");
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "world");
}

TEST(LineIo, LineLongerThanOneChunk) {
  SocketPair pair;
  const std::string long_line(3 * 4096 + 17, 'x');
  ASSERT_TRUE(send_line(pair.fds[1], long_line, 1000));
  ASSERT_TRUE(send_line(pair.fds[1], "tail", 1000));
  LineReader reader(pair.fds[0]);
  std::string line;
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, long_line);
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "tail");
}

TEST(LineIo, MaxLineOverLongLineInOneRead) {
  SocketPair pair;
  pair.write_raw(std::string(17, 'x') + "\n" + std::string(16, 'y') +
                 "\nok\n");
  LineReader reader(pair.fds[0], /*max_line=*/16);
  std::string line = "untouched";
  EXPECT_EQ(reader.read_line(1000, line), RecvStatus::kTooLong);
  EXPECT_EQ(line, "untouched");
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, std::string(16, 'y'));  // exactly max_line is a line
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(reader.read_line(0, line), RecvStatus::kTimeout);
}

TEST(LineIo, MaxLineOverLongLineSplitAcrossReads) {
  SocketPair pair;
  LineReader reader(pair.fds[0], /*max_line=*/16);
  std::string line;
  pair.write_raw(std::string(10, 'x'));
  EXPECT_EQ(reader.read_line(20, line), RecvStatus::kTimeout);
  // Its length shows before its newline arrives: one kTooLong, then the
  // rest of the line is dropped as it comes, over many reads.
  pair.write_raw(std::string(10, 'x'));
  EXPECT_EQ(reader.read_line(1000, line), RecvStatus::kTooLong);
  for (int i = 0; i < 3; ++i) {
    pair.write_raw(std::string(5000, 'x'));
    EXPECT_EQ(reader.read_line(20, line), RecvStatus::kTimeout);
  }
  pair.write_raw("xx\ngo");
  EXPECT_EQ(reader.read_line(20, line), RecvStatus::kTimeout);
  pair.write_raw("od\n");
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "good");
  EXPECT_EQ(reader.read_line(0, line), RecvStatus::kTimeout);
}

TEST(LineIo, EofAmidALineIsClosedWithNoPartialLine) {
  SocketPair pair;
  pair.write_raw("whole\npart");
  pair.close_writer();
  LineReader reader(pair.fds[0]);
  std::string line;
  ASSERT_EQ(reader.read_line(1000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "whole");
  line = "untouched";
  EXPECT_EQ(reader.read_line(1000, line), RecvStatus::kClosed);
  EXPECT_EQ(line, "untouched");
  EXPECT_EQ(reader.read_line(-1, line), RecvStatus::kClosed);
}

TEST(LineIo, NoFdIsClosed) {
  LineReader reader;
  std::string line;
  EXPECT_EQ(reader.read_line(0, line), RecvStatus::kClosed);
  EXPECT_FALSE(send_line(-1, "x", 0));
}

TEST(LineIo, TimeoutWaitsItsBudget) {
  SocketPair pair;
  LineReader reader(pair.fds[0]);
  std::string line;
  const auto start = Clock::now();
  EXPECT_EQ(reader.read_line(60, line), RecvStatus::kTimeout);
  EXPECT_GE(ms_since(start), 55);
}

TEST(LineIo, WakeFdEndsTheWait) {
  SocketPair pair;
  int wake[2];
  ASSERT_EQ(::pipe(wake), 0);
  LineReader reader(pair.fds[0]);
  std::string line;
  const char byte = 1;
  ASSERT_EQ(::write(wake[1], &byte, 1), 1);
  const auto start = Clock::now();
  EXPECT_EQ(reader.read_line(5000, line, wake[0]), RecvStatus::kWoken);
  EXPECT_LT(ms_since(start), 2500);
  // A line already buffered wins over the wake fd.
  pair.write_raw("ready\n");
  ASSERT_EQ(reader.read_line(1000, line, wake[0]), RecvStatus::kLine);
  EXPECT_EQ(line, "ready");
  ::close(wake[0]);
  ::close(wake[1]);
}

// Shrinks both kernel buffers so a modest line cannot fit.
void shrink_buffers(const SocketPair& pair) {
  const int size = 4096;
  ::setsockopt(pair.fds[1], SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  ::setsockopt(pair.fds[0], SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
}

TEST(LineIo, SendToAStalledReaderTimesOut) {
  SocketPair pair;
  shrink_buffers(pair);
  const std::string big(1 << 20, 'z');
  const auto start = Clock::now();
  EXPECT_FALSE(send_line(pair.fds[1], big, 100));
  const long long waited = ms_since(start);
  EXPECT_GE(waited, 95);
  EXPECT_LT(waited, 5000);
}

TEST(LineIo, SendToAGonePeerIsFalseNotSigpipe) {
  SocketPair pair;
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  EXPECT_FALSE(send_line(pair.fds[1], "nobody", 1000));
}

// ---------------------------------------------------------------------------
// Signals: an interrupted wait goes on with the rest of its timeout
// ---------------------------------------------------------------------------

void on_alarm(int) {}

// Installs a no-op SIGALRM handler with SA_RESTART (poll is not restarted
// by it) and restores the old one on scope exit.
struct AlarmHandler {
  AlarmHandler() {
    struct sigaction action{};
    action.sa_handler = on_alarm;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGALRM, &action, &saved);
  }
  ~AlarmHandler() { ::sigaction(SIGALRM, &saved, nullptr); }
  struct sigaction saved{};
};

// Sends SIGALRM to `target` after `delay_ms`, then runs `then`.
template <typename Then>
std::thread alarm_then(pthread_t target, int delay_ms, Then then) {
  return std::thread([target, delay_ms, then] {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ::pthread_kill(target, SIGALRM);
    then();
  });
}

TEST(LineIo, SignalDuringReadIsNotClosed) {
  const AlarmHandler handler;
  SocketPair pair;
  LineReader reader(pair.fds[0]);
  std::thread peer = alarm_then(::pthread_self(), 100, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    send_line(pair.fds[1], "late", 1000);
  });
  std::string line;
  EXPECT_EQ(reader.read_line(5000, line), RecvStatus::kLine);
  EXPECT_EQ(line, "late");
  peer.join();
}

TEST(LineIo, SignalDuringTimeoutKeepsTheBudget) {
  const AlarmHandler handler;
  SocketPair pair;
  LineReader reader(pair.fds[0]);
  std::thread peer = alarm_then(::pthread_self(), 50, [] {});
  std::string line;
  const auto start = Clock::now();
  EXPECT_EQ(reader.read_line(300, line), RecvStatus::kTimeout);
  EXPECT_GE(ms_since(start), 280);
  peer.join();
}

TEST(LineIo, SignalDuringStalledSendIsNotFailure) {
  const AlarmHandler handler;
  SocketPair pair;
  shrink_buffers(pair);
  const std::string big(1 << 18, 'q');
  std::thread peer = alarm_then(::pthread_self(), 100, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    LineReader reader(pair.fds[0]);
    std::string line;
    reader.read_line(5000, line);
  });
  EXPECT_TRUE(send_line(pair.fds[1], big, 5000));
  peer.join();
}

// A daemon-side listener for LineClient: one accepted connection.
struct UnixListener {
  UnixListener() {
    path = testing::TempDir() + "megflood_line_io_test.sock";
    ::unlink(path.c_str());
    const SocketAddress address = unix_address(path);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::bind(fd, address.get(), address.size), 0);
    EXPECT_EQ(::listen(fd, 4), 0);
  }
  ~UnixListener() {
    if (peer >= 0) ::close(peer);
    ::close(fd);
    ::unlink(path.c_str());
  }
  void accept_one() { peer = ::accept(fd, nullptr, nullptr); }
  std::string path;
  int fd = -1;
  int peer = -1;
};

TEST(LineClientSignals, RecvLineSurvivesASignal) {
  const AlarmHandler handler;
  UnixListener listener;
  LineClient client = LineClient::connect_unix(listener.path, 5000);
  listener.accept_one();
  ASSERT_GE(listener.peer, 0);
  std::thread server = alarm_then(::pthread_self(), 200, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    send_line(listener.peer, "{\"event\": \"pong\"}", 1000);
  });
  RecvStatus status = RecvStatus::kLine;
  const auto line = client.recv_line(5000, &status);
  server.join();
  EXPECT_EQ(status, RecvStatus::kLine);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "{\"event\": \"pong\"}");
  EXPECT_TRUE(client.connected());
}

TEST(LineClientSignals, SendLineSurvivesASignal) {
  const AlarmHandler handler;
  UnixListener listener;
  LineClient client = LineClient::connect_unix(listener.path, 5000);
  listener.accept_one();
  ASSERT_GE(listener.peer, 0);
  const int size = 4096;
  ::setsockopt(listener.peer, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
  const std::string big(1 << 20, 'b');
  std::thread server = alarm_then(::pthread_self(), 200, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    LineReader reader(listener.peer);
    std::string line;
    reader.read_line(5000, line);
  });
  EXPECT_TRUE(client.send_line(big, 5000));
  server.join();
}

TEST(LineIo, AddressesCarryTheirFamily) {
  EXPECT_EQ(unix_address("/tmp/x.sock").family(), AF_UNIX);
  EXPECT_EQ(loopback_address(7).family(), AF_INET);
  EXPECT_THROW(unix_address(std::string(200, 'p')), std::runtime_error);
}

}  // namespace
}  // namespace megflood::serve
