// End-to-end daemon tests (serve/server.hpp): a real in-process server on
// a Unix-domain socket, driven through the real wire protocol with
// serve/client.hpp.  Covers the happy path, cached re-query
// byte-identity, protocol abuse (malformed and oversized lines must not
// kill the connection), cancellation, stats, and graceful shutdown by
// both the shutdown op and the stop flag, also with a client that stopped
// reading.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/line_io.hpp"
#include "serve/server.hpp"

namespace megflood::serve {
namespace {

constexpr int kRecvMs = 20000;  // generous: CI boxes can stall

struct TestServer {
  explicit TestServer(std::size_t max_line = 1 << 16) {
    path = testing::TempDir() + "megflood_serve_test.sock";
    ServerConfig config;
    config.unix_path = path;
    config.workers = 2;
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
// pongs, so the connection's writer waits in its send.  Stop must still
// end serve() within the drain's flush deadline.  A watchdog shuts the
// client's socket if serve() has not returned by then, so a drain that
// waits without bound fails this test instead of hanging it.
TEST(ServeServer, StopEndsTheDrainOfAClientThatStoppedReading) {
  using Clock = std::chrono::steady_clock;
  TestServer server;
  const SocketAddress address = unix_address(server.path);
  const int fd = ::socket(address.family(), SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, address.get(), address.size), 0);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(send_line(fd, "{\"op\":\"ping\"}", kRecvMs));
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

}  // namespace
}  // namespace megflood::serve
