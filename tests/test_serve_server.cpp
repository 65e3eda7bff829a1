// End-to-end daemon tests (serve/server.hpp): a real in-process server on
// a Unix-domain socket, driven through the real wire protocol with
// serve/client.hpp.  Covers the happy path, cached re-query
// byte-identity, protocol abuse (malformed and oversized lines must not
// kill the connection), cancellation, stats, graceful shutdown by both
// the shutdown op and the stop flag, also with a client that stopped
// reading, and back-pressure on a client that sends and never reads.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/line_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/resource.hpp"

#ifndef MEGFLOOD_SERVE_PATH
#error "MEGFLOOD_SERVE_PATH must point at the megflood_serve binary"
#endif

namespace megflood::serve {
namespace {

constexpr int kRecvMs = 20000;  // generous: CI boxes can stall

struct TestServer {
  explicit TestServer(std::size_t max_line = 1 << 16) {
    path = testing::TempDir() + "megflood_serve_test.sock";
    ServerConfig config;
    config.unix_path = path;
    config.workers = 2;
    config.worker_binary = MEGFLOOD_SERVE_PATH;
    config.max_line = max_line;
    server = std::make_unique<Server>(config);
    thread = std::thread([this] { exit_code = server->serve(stop); });
  }

  ~TestServer() { shutdown(); }

  void shutdown() {
    if (thread.joinable()) {
      server->request_shutdown();
      thread.join();
    }
  }

  LineClient connect() { return LineClient::connect_unix(path); }

  std::string path;
  std::atomic<bool> stop{false};
  std::unique_ptr<Server> server;
  std::thread thread;
  int exit_code = -1;
};

std::string event_kind(const std::string& line) {
  std::string error;
  const auto event = parse_json(line, error);
  if (!event || !event->is_object()) return "";
  const JsonValue* kind = event->find("event");
  return kind && kind->is_string() ? kind->string : "";
}

// Reads lines until one of the wanted kind arrives (others are allowed
// to interleave — queued/running/trial_done stream past).
std::optional<std::string> recv_event(LineClient& client,
                                      const std::string& wanted) {
  for (int i = 0; i < 1000; ++i) {
    const auto line = client.recv_line(kRecvMs);
    if (!line) return std::nullopt;
    if (event_kind(*line) == wanted) return line;
  }
  return std::nullopt;
}

std::string submit_line(const std::string& id, std::uint64_t seed) {
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"args\":[\"--model=fixed\",\"--n=16\",\"--trials=2\","
         "\"--seed=" +
         std::to_string(seed) + "\"]}";
}

// A raw connection to the server's socket, for clients that misbehave.
int connect_raw(const std::string& path) {
  const SocketAddress address = unix_address(path);
  const int fd = ::socket(address.family(), SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, address.get(), address.size) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// This process's resident set now (VmRSS), in bytes; 0 when unknown.
std::uint64_t current_rss_bytes() {
  std::uint64_t kib = 0;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long value = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmRSS: %llu kB", &value) == 1) {
        kib = value;
        break;
      }
    }
    std::fclose(status);
  }
  return kib * 1024;
}

std::string result_suffix(const std::string& done_line) {
  const std::size_t at = done_line.find("\"result\": ");
  return at == std::string::npos ? "" : done_line.substr(at);
}

TEST(ServeServer, SubmitStreamsEventsAndCachedRequeryIsByteIdentical) {
  TestServer server;
  LineClient client = server.connect();

  ASSERT_TRUE(client.send_line(submit_line("fresh", 11)));
  const auto queued = recv_event(client, "queued");
  ASSERT_TRUE(queued.has_value());
  const auto fresh_done = recv_event(client, "done");
  ASSERT_TRUE(fresh_done.has_value());
  EXPECT_NE(fresh_done->find("\"cached\": false"), std::string::npos)
      << *fresh_done;
  const std::string fresh_bytes = result_suffix(*fresh_done);
  ASSERT_FALSE(fresh_bytes.empty());

  // Same campaign, new id — answered from the cache, byte-identical.
  ASSERT_TRUE(client.send_line(submit_line("again", 11)));
  const auto cached_done = recv_event(client, "done");
  ASSERT_TRUE(cached_done.has_value());
  EXPECT_NE(cached_done->find("\"cached\": true"), std::string::npos)
      << *cached_done;
  EXPECT_EQ(result_suffix(*cached_done), fresh_bytes);
}

TEST(ServeServer, MalformedLinesGetErrorsAndTheConnectionSurvives) {
  TestServer server;
  LineClient client = server.connect();

  const std::string abuse[] = {
      "this is not json",
      "[]",
      "{\"op\":\"warp\"}",
      "{\"op\":\"submit\",\"id\":\"x\",\"args\":[],\"surprise\":1}",
      "{\"op\":\"submit\",\"id\":\"x\",\"args\":[\"--model=nope\"]}",
  };
  for (const std::string& line : abuse) {
    ASSERT_TRUE(client.send_line(line));
    const auto reply = recv_event(client, "error");
    ASSERT_TRUE(reply.has_value()) << line;
  }
  // After all that, the connection still works end to end.
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  EXPECT_TRUE(recv_event(client, "pong").has_value());
  ASSERT_TRUE(client.send_line(submit_line("after-abuse", 12)));
  EXPECT_TRUE(recv_event(client, "done").has_value());
}

TEST(ServeServer, OversizedLinesAreDiscardedNotFatal) {
  TestServer server(/*max_line=*/256);
  LineClient client = server.connect();

  // One oversized line arriving in a single write...
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\",\"pad\":\"" +
                               std::string(500, 'x') + "\"}"));
  ASSERT_TRUE(recv_event(client, "error").has_value());
  // ...and one dribbled in pieces, exercising the discard-to-newline
  // path across reads.
  ASSERT_TRUE(client.send_line(std::string(5000, 'y')));
  ASSERT_TRUE(recv_event(client, "error").has_value());

  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  EXPECT_TRUE(recv_event(client, "pong").has_value());
}

TEST(ServeServer, CancelOverTheWire) {
  TestServer server;
  LineClient client = server.connect();

  // A sweep big enough that something is still queued when the cancel
  // lands; sub-jobs may already have finished — both outcomes are legal,
  // the job must just terminate with cancelled (or done if it raced to
  // completion).
  ASSERT_TRUE(client.send_line(
      "{\"op\":\"submit\",\"id\":\"big\",\"args\":[\"--model=fixed\","
      "\"--trials=2\"],\"sweep\":\"n=16:256:16\"}"));
  ASSERT_TRUE(recv_event(client, "queued").has_value());
  ASSERT_TRUE(client.send_line("{\"op\":\"cancel\",\"id\":\"big\"}"));
  for (int i = 0; i < 1000; ++i) {
    const auto line = client.recv_line(kRecvMs);
    ASSERT_TRUE(line.has_value());
    const std::string kind = event_kind(*line);
    if (kind == "cancelled" || kind == "done") {
      SUCCEED();
      return;
    }
  }
  FAIL() << "job neither cancelled nor done";
}

TEST(ServeServer, StatsReportTheCache) {
  TestServer server;
  LineClient client = server.connect();
  ASSERT_TRUE(client.send_line(submit_line("warm", 13)));
  ASSERT_TRUE(recv_event(client, "done").has_value());
  ASSERT_TRUE(client.send_line(submit_line("warm2", 13)));
  ASSERT_TRUE(recv_event(client, "done").has_value());

  ASSERT_TRUE(client.send_line("{\"op\":\"stats\"}"));
  const auto stats_line = recv_event(client, "stats");
  ASSERT_TRUE(stats_line.has_value());
  std::string error;
  const auto stats = parse_json(*stats_line, error);
  ASSERT_TRUE(stats.has_value());
  const JsonValue* cache = stats->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("hits")->number, 1.0) << *stats_line;
  EXPECT_GE(stats->find("jobs_done")->number, 2.0);
}

TEST(ServeServer, ShutdownOpDrainsGracefully) {
  TestServer server;
  {
    LineClient client = server.connect();
    ASSERT_TRUE(client.send_line("{\"op\":\"shutdown\"}"));
    EXPECT_TRUE(recv_event(client, "draining").has_value());
  }
  server.thread.join();
  EXPECT_EQ(server.exit_code, 0);
}

TEST(ServeServer, StopFlagDrainsInFlightJobsAsCancelled) {
  TestServer server;
  LineClient client = server.connect();
  // A large queued sweep; the stop flag must resolve it as cancelled (or
  // done, if the pool raced through it) and flush before closing.
  ASSERT_TRUE(client.send_line(
      "{\"op\":\"submit\",\"id\":\"doomed\",\"args\":[\"--model=fixed\","
      "\"--trials=2\"],\"sweep\":\"n=16:512:16\"}"));
  ASSERT_TRUE(recv_event(client, "queued").has_value());
  server.stop.store(true);
  server.thread.join();
  EXPECT_EQ(server.exit_code, 0);
  bool terminal_seen = false;
  for (int i = 0; i < 1000 && !terminal_seen; ++i) {
    const auto line = client.recv_line(2000);
    if (!line) break;
    const std::string kind = event_kind(*line);
    terminal_seen = kind == "cancelled" || kind == "done";
  }
  EXPECT_TRUE(terminal_seen);
}

// A client that sends pings and reads nothing fills the sockets with
// pongs, so the connection's thread waits in its send.  Stop must still
// end serve() within the drain's flush deadline.  A watchdog shuts the
// client's socket if serve() has not returned by then, so a drain that
// waits without bound fails this test instead of hanging it.
TEST(ServeServer, StopEndsTheDrainOfAClientThatStoppedReading) {
  using Clock = std::chrono::steady_clock;
  TestServer server;
  const int fd = connect_raw(server.path);
  ASSERT_GE(fd, 0);
  // The daemon stops reading this client once its pongs fill the
  // sockets, so the sends stall too: stop at the first that times out.
  for (int i = 0; i < 20000; ++i) {
    if (!send_line(fd, "{\"op\":\"ping\"}", 200)) break;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::promise<void> returned;
  std::thread watchdog([fd, done = returned.get_future()] {
    if (done.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ::shutdown(fd, SHUT_RDWR);
    }
  });
  const Clock::time_point start = Clock::now();
  server.stop.store(true);
  server.thread.join();
  const auto took = Clock::now() - start;
  returned.set_value();
  watchdog.join();
  ::close(fd);
  EXPECT_EQ(server.exit_code, 0);
  EXPECT_LT(took, std::chrono::seconds(6));
}

// Back-pressure: the daemon reads a request only after its answers to
// the earlier ones are on the wire.  A client that sends 400 000 pings
// and reads nothing stalls in its own sends once the sockets fill, the
// daemon holds no pile of unread pongs, a second connection is served
// meanwhile, and the first client then reads every pong and nothing else.
TEST(ServeServer, AClientThatStopsReadingStopsBeingRead) {
  constexpr int kPings = 400000;
  const std::string pong = event_pong();
  TestServer server;
  const std::uint64_t rss_before = current_rss_bytes();
  const int fd = connect_raw(server.path);
  ASSERT_GE(fd, 0);
  std::atomic<int> sent{0};
  std::thread sender([fd, &sent] {
    for (int i = 0; i < kPings; ++i) {
      if (!send_line(fd, "{\"op\":\"ping\"}", kRecvMs)) return;
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Until the sender is done, or has made no progress for 300 ms.
  int last = -1;
  for (int quiet = 0, tick = 0; quiet < 3 && tick < 200; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int now = sent.load(std::memory_order_relaxed);
    if (now == kPings) break;
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
  const int sent_unread = sent.load(std::memory_order_relaxed);
  const std::uint64_t rss_stalled = current_rss_bytes();

  // No ASSERT until the sender is joined.
  LineClient other = server.connect();
  EXPECT_TRUE(other.send_line(submit_line("meanwhile", 14)));
  EXPECT_TRUE(recv_event(other, "done").has_value());

  LineReader reader(fd);
  std::string line;
  int pongs = 0;
  while (pongs < kPings &&
         reader.read_line(kRecvMs, line) == RecvStatus::kLine &&
         line == pong) {
    ++pongs;
  }
  ::shutdown(fd, SHUT_RDWR);  // ends a send still waiting, if any
  sender.join();
  ::close(fd);
  EXPECT_EQ(pongs, kPings) << "last line: " << line;
  EXPECT_LT(sent_unread, kPings);
  if (rss_guard_reliable() && rss_before > 0) {
    // The parent of this design queued every pong: ~25 MB here.
    EXPECT_LT(rss_stalled, rss_before + (4u << 20))
        << "RSS " << rss_before << " -> " << rss_stalled << " bytes";
  }
}

}  // namespace
}  // namespace megflood::serve
