// Chaos harness for megflood_serve (ISSUE 9): the daemon under injected
// faults — dropped connections, stalled writers, corrupted disk-cache
// entries, a saturated admission queue, and a genuine SIGKILL mid-trial
// followed by a restart that must resume the interrupted campaign and
// answer byte-identically to an uninterrupted run.
//
// The in-process tests drive a real Server through ServerConfig::inject,
// its campaigns in worker subprocesses of the megflood_serve binary (path
// injected by CMake as MEGFLOOD_SERVE_PATH).  The kill/restart tests exec
// that binary as the daemon, because SIGKILL cannot be simulated
// in-process: the test SIGKILLs it by pid while its campaign stalls in an
// injected slow trial, so the crash point is not a timing race.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

#ifndef MEGFLOOD_SERVE_PATH
#error "MEGFLOOD_SERVE_PATH must point at the megflood_serve binary"
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace megflood::serve {
namespace {

constexpr int kRecvMs = 30000;  // generous: CI boxes can stall

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string event_kind(const std::string& line) {
  std::string error;
  const auto event = parse_json(line, error);
  if (!event || !event->is_object()) return "";
  const JsonValue* kind = event->find("event");
  return kind && kind->is_string() ? kind->string : "";
}

std::string submit_line(const std::string& id, std::uint64_t seed,
                        std::size_t trials, std::size_t n = 16) {
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"args\":[\"--model=fixed\",\"--n=" + std::to_string(n) +
         "\",\"--trials=" + std::to_string(trials) +
         "\",\"--seed=" + std::to_string(seed) + "\"]}";
}

// The result bytes of a done event, from the (single) sub-job's result
// object to the end of the line — identity-bearing payload only, not the
// run-dependent "cached" flag or cache_hits counters.
std::string results_suffix(const std::string& done_line) {
  const std::size_t at = done_line.find("\"result\": {");
  return at == std::string::npos ? "" : done_line.substr(at);
}

struct ChaosServer {
  explicit ChaosServer(ServerConfig config) {
    if (config.unix_path.empty()) {
      config.unix_path = testing::TempDir() + "megflood_chaos.sock";
    }
    path = config.unix_path;
    config.worker_binary = MEGFLOOD_SERVE_PATH;
    server = std::make_unique<Server>(config);
    thread = std::thread([this] { server->serve(stop); });
  }

  ~ChaosServer() { shutdown(); }

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
};

// ---------------------------------------------------------------------------
// Dropped connections: drop:conn=N shuts the socket down at the N-th
// written event.  A fresh 2-trial job streams exactly 5 events (queued,
// running, trial_done x2, done), so drop:conn=5 severs every first
// attempt at the done line — after the server has cached the result.
// The retrying client must reconnect, resubmit, and be answered from the
// cache, byte-identically.
// ---------------------------------------------------------------------------

TEST(ServeChaos, DroppedConnectionIsSurvivedByRetryingClient) {
  ServerConfig config;
  config.workers = 1;
  config.inject = "drop:conn=5";
  ChaosServer server(config);

  RetryPolicy policy;
  policy.seed = 7;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 100;
  RetryingClient client([&server] { return server.connect(); }, policy);

  ASSERT_TRUE(client.submit("j", submit_line("j", 41, 2)));
  std::optional<std::string> done;
  for (int i = 0; i < 100 && !done; ++i) {
    auto line = client.recv_event(kRecvMs);
    ASSERT_TRUE(line.has_value()) << "retrying client gave up";
    if (event_kind(*line) == "done") done = line;
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_NE(done->find("\"result\": {"), std::string::npos) << *done;
  EXPECT_GE(client.reconnects(), 1u);  // the drop really happened
  EXPECT_GE(client.resubmits(), 1u);
  EXPECT_EQ(client.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Stalled writer: stallwrite:every=K,ms=M delays event delivery without
// corrupting it — the stream must still arrive complete and in order.
// ---------------------------------------------------------------------------

TEST(ServeChaos, StalledWriterDelaysButDeliversEveryEvent) {
  ServerConfig config;
  config.workers = 1;
  config.inject = "stallwrite:every=2,ms=20";
  ChaosServer server(config);

  LineClient client = server.connect();
  ASSERT_TRUE(client.send_line(submit_line("j", 42, 2)));
  std::vector<std::string> kinds;
  while (kinds.empty() || kinds.back() != "done") {
    const auto line = client.recv_line(kRecvMs);
    ASSERT_TRUE(line.has_value()) << "stream broke under stallwrite";
    kinds.push_back(event_kind(*line));
  }
  const std::vector<std::string> expected = {"queued", "running", "trial_done",
                                             "trial_done", "done"};
  EXPECT_EQ(kinds, expected);
}

// ---------------------------------------------------------------------------
// Corrupted disk entry: corrupt:store=1 tears the first entry the daemon
// persists.  A restarted daemon must treat the torn entry as a miss,
// recompute, and answer byte-identically — never serve garbage.
// ---------------------------------------------------------------------------

TEST(ServeChaos, CorruptedDiskEntryIsRecomputedByteIdenticallyOnRestart) {
  const std::string cache_dir = fresh_dir("chaos_corrupt_cache");
  std::string first_done;
  {
    ServerConfig config;
    config.workers = 1;
    config.cache_dir = cache_dir;
    config.inject = "corrupt:store=1";
    ChaosServer server(config);
    LineClient client = server.connect();
    ASSERT_TRUE(client.send_line(submit_line("j", 43, 2)));
    while (true) {
      const auto line = client.recv_line(kRecvMs);
      ASSERT_TRUE(line.has_value());
      if (event_kind(*line) == "done") {
        first_done = *line;
        break;
      }
    }
  }
  // Restart on the same directory, no faults: the torn entry is a miss.
  ServerConfig config;
  config.workers = 1;
  config.cache_dir = cache_dir;
  ChaosServer server(config);
  LineClient client = server.connect();
  ASSERT_TRUE(client.send_line(submit_line("j", 43, 2)));
  std::string second_done;
  std::string second_queued;
  while (second_done.empty()) {
    const auto line = client.recv_line(kRecvMs);
    ASSERT_TRUE(line.has_value());
    if (event_kind(*line) == "queued") second_queued = *line;
    if (event_kind(*line) == "done") second_done = *line;
  }
  // Recomputed (the torn entry did not count as a hit) ...
  EXPECT_NE(second_queued.find("\"cache_hits\": 0"), std::string::npos)
      << second_queued;
  // ... and byte-identical to the first answer.
  ASSERT_FALSE(results_suffix(first_done).empty());
  EXPECT_EQ(results_suffix(second_done), results_suffix(first_done));
}

// ---------------------------------------------------------------------------
// Saturation: with a one-slot queue and a busy worker, submissions past
// the cap get `rejected` (never a hang, never a silent drop) — and a
// retrying client turns those rejections into eventual completion.
// ---------------------------------------------------------------------------

TEST(ServeChaos, SaturatedQueueRejectsEveryOverflowTerminally) {
  ServerConfig config;
  config.workers = 1;
  config.max_queue = 1;
  ChaosServer server(config);

  LineClient client = server.connect();
  // Three long jobs back-to-back: the worker holds the first for its full
  // duration, so at most one of the others fits the one-slot queue.
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(client.send_line(
        submit_line("j" + std::to_string(j), 100 + std::uint64_t(j), 500)));
  }
  std::size_t done = 0;
  std::size_t rejected = 0;
  while (done + rejected < 3) {
    const auto line = client.recv_line(kRecvMs);
    ASSERT_TRUE(line.has_value()) << "a job was silently dropped";
    const std::string kind = event_kind(*line);
    if (kind == "done") ++done;
    if (kind == "rejected") {
      ++rejected;
      EXPECT_NE(line->find("\"reason\": \"queue_full\""), std::string::npos)
          << *line;
      EXPECT_NE(line->find("\"retry_after_ms\": "), std::string::npos);
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(done, 1u);
}

TEST(ServeChaos, RetryingClientRidesOutSaturation) {
  ServerConfig config;
  config.workers = 1;
  config.max_queue = 1;
  ChaosServer server(config);

  RetryPolicy policy;
  policy.seed = 11;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 100;
  RetryingClient client([&server] { return server.connect(); }, policy);
  for (int j = 0; j < 3; ++j) {
    const std::string id = "j" + std::to_string(j);
    ASSERT_TRUE(
        client.submit(id, submit_line(id, 110 + std::uint64_t(j), 500)));
  }
  std::size_t done = 0;
  // Each 500-trial job streams hundreds of trial_done events; the bound
  // exists only to turn a wedged server into a test failure.
  for (int i = 0; i < 20000 && done < 3; ++i) {
    const auto line = client.recv_event(kRecvMs);
    ASSERT_TRUE(line.has_value()) << "retrying client gave up under load";
    if (event_kind(*line) == "done") ++done;
  }
  EXPECT_EQ(done, 3u);
  EXPECT_EQ(client.pending(), 0u);
}

#if defined(__unix__) || defined(__APPLE__)

TEST(ServeChaos, AcceptedJobRestartsTheRetryBackoff) {
  // A scripted daemon rejects job a (queue_full, no retry_after_ms hint,
  // so each wait is the client's own jittered backoff) kRejections times,
  // then queues and finishes it; then it rejects job b once.  Each wait
  // is timed from the rejection to the resubmission.  a's waits grow
  // toward max_backoff_ms (12, 13, 33, 97, 288 ms with this seed); b's,
  // after a was accepted, starts over near base_backoff_ms (uniform in
  // [base, 3 * base]).  A backoff that kept growing waits 400 ms there.
  constexpr int kRejections = 5;
  constexpr std::uint64_t kBaseMs = 5;
  const std::string path = testing::TempDir() + "backoff_reset.sock";
  std::filesystem::remove(path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const SocketAddress address = unix_address(path);
  ASSERT_EQ(::bind(listener, address.get(), address.size), 0);
  ASSERT_EQ(::listen(listener, 1), 0);

  std::vector<std::int64_t> waits_ms;
  std::thread daemon([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    LineReader reader(fd);
    std::string line;
    const auto reply = [fd](const std::string& event, const char* id) {
      const char* reason =
          event == "rejected" ? ", \"reason\": \"queue_full\"" : "";
      send_line(fd, "{\"event\": \"" + event + "\", \"id\": \"" + id + "\"" +
                        reason + "}");
    };
    const auto reject = [&](const char* id) {
      reply("rejected", id);
      const auto sent = std::chrono::steady_clock::now();
      if (reader.read_line(kRecvMs, line) != RecvStatus::kLine) return;
      waits_ms.push_back(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - sent)
              .count());
    };
    reader.read_line(kRecvMs, line);  // a's submission
    for (int k = 0; k < kRejections; ++k) reject("a");
    reply("queued", "a");
    reply("done", "a");
    reader.read_line(kRecvMs, line);  // b's submission
    reject("b");
    reply("done", "b");
    ::close(fd);
  });

  RetryPolicy policy;
  policy.seed = 7;
  policy.base_backoff_ms = kBaseMs;
  policy.max_backoff_ms = 400;
  RetryingClient client([&path] { return LineClient::connect_unix(path); },
                        policy);
  const auto run_jobs = [&client] {
    for (const char* id : {"a", "b"}) {
      const std::string line = std::string("{\"op\": \"submit\", \"id\": \"") +
                               id + "\"}";
      ASSERT_TRUE(client.submit(id, line));
      std::optional<std::string> event;
      do {
        event = client.recv_event(kRecvMs);
        ASSERT_TRUE(event.has_value());
      } while (event_kind(*event) != "done");
    }
  };
  run_jobs();
  ::shutdown(listener, SHUT_RDWR);  // ends an accept() the client never met
  daemon.join();
  ::close(listener);
  std::filesystem::remove(path);

  ASSERT_EQ(waits_ms.size(), std::size_t{kRejections} + 1);
  const std::int64_t grown = *std::max_element(
      waits_ms.begin(), waits_ms.begin() + kRejections);
  EXPECT_EQ(client.rejected_retries(), std::uint64_t{kRejections} + 1);
  EXPECT_GE(grown, 100) << "a's backoff did not grow";
  // 3 * base plus room for a slow scheduler.
  EXPECT_LT(waits_ms.back(), 3 * static_cast<std::int64_t>(kBaseMs) + 45);
}

TEST(ServeChaos, ARejectionRunWaitsOnceNotPerJob) {
  // A scripted daemon reads kJobs pipelined submissions, then rejects them
  // all back to back (queue_full, no retry_after_ms hint), as a full
  // queue does.  Each resubmission is timed from the first rejection.  A
  // client that slept its backoff once per rejection, in line, would send
  // the last one only after the sum of the growing backoffs (12, 13, 33,
  // 97 ms, then 200 ms each with this seed: ~955 ms); one that schedules
  // every resend at its own due time sends all within one max backoff.
  constexpr int kJobs = 8;
  constexpr std::int64_t kMaxBackoffMs = 200;
  const std::string path = testing::TempDir() + "rejection_run.sock";
  std::filesystem::remove(path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const SocketAddress address = unix_address(path);
  ASSERT_EQ(::bind(listener, address.get(), address.size), 0);
  ASSERT_EQ(::listen(listener, 1), 0);

  const auto job_id = [](int j) { return "j" + std::to_string(j); };
  std::vector<std::int64_t> resend_ms;
  std::thread daemon([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    LineReader reader(fd);
    std::string line;
    const auto reply = [fd](const std::string& event, const std::string& id) {
      const char* reason =
          event == "rejected" ? ", \"reason\": \"queue_full\"" : "";
      send_line(fd, "{\"event\": \"" + event + "\", \"id\": \"" + id + "\"" +
                        reason + "}");
    };
    for (int j = 0; j < kJobs; ++j) {
      if (reader.read_line(kRecvMs, line) != RecvStatus::kLine) return;
    }
    const auto first_rejection = std::chrono::steady_clock::now();
    for (int j = 0; j < kJobs; ++j) reply("rejected", job_id(j));
    for (int j = 0; j < kJobs; ++j) {
      if (reader.read_line(kRecvMs, line) != RecvStatus::kLine) return;
      resend_ms.push_back(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - first_rejection)
              .count());
    }
    for (int j = 0; j < kJobs; ++j) {
      reply("queued", job_id(j));
      reply("done", job_id(j));
    }
    ::close(fd);
  });

  RetryPolicy policy;
  policy.seed = 7;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = kMaxBackoffMs;
  RetryingClient client([&path] { return LineClient::connect_unix(path); },
                        policy);
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(client.submit(
        job_id(j), "{\"op\": \"submit\", \"id\": \"" + job_id(j) + "\"}"));
  }
  int done = 0;
  while (done < kJobs) {
    const auto event = client.recv_event(kRecvMs);
    ASSERT_TRUE(event.has_value());
    if (event_kind(*event) == "done") ++done;
  }
  ::shutdown(listener, SHUT_RDWR);
  daemon.join();
  ::close(listener);
  std::filesystem::remove(path);

  ASSERT_EQ(resend_ms.size(), std::size_t{kJobs});
  EXPECT_EQ(client.rejected_retries(), std::uint64_t{kJobs});
  EXPECT_EQ(client.pending(), 0u);
  // One max backoff plus room for a slow scheduler.
  EXPECT_LT(resend_ms.back(), kMaxBackoffMs + 100);
}

TEST(ServeChaos, AQueuedJobPullsScheduledResendsForward) {
  // A scripted daemon reads job a and kRejected more pipelined
  // submissions, rejects the others (queue_full, retry_after_ms =
  // kHintMs), then queues a: the queue has room again.  Each resubmission
  // is timed from that `queued` event.  A client that kept the resends at
  // their due times would send them kHintMs after the rejections; one
  // that pulls them forward sends each within base_backoff_ms.
  constexpr int kRejected = 4;
  constexpr std::int64_t kHintMs = 1500;
  constexpr std::int64_t kBaseMs = 5;
  const std::string path = testing::TempDir() + "queued_pulls.sock";
  std::filesystem::remove(path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const SocketAddress address = unix_address(path);
  ASSERT_EQ(::bind(listener, address.get(), address.size), 0);
  ASSERT_EQ(::listen(listener, 1), 0);

  const auto job_id = [](int j) { return "b" + std::to_string(j); };
  std::vector<std::int64_t> resend_ms;
  std::thread daemon([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    LineReader reader(fd);
    std::string line;
    const auto reply = [fd](const std::string& event, const std::string& id) {
      const std::string reason =
          event == "rejected" ? ", \"reason\": \"queue_full\", "
                                "\"retry_after_ms\": " +
                                    std::to_string(kHintMs)
                              : "";
      send_line(fd, "{\"event\": \"" + event + "\", \"id\": \"" + id + "\"" +
                        reason + "}");
    };
    for (int j = 0; j <= kRejected; ++j) {
      if (reader.read_line(kRecvMs, line) != RecvStatus::kLine) return;
    }
    for (int j = 0; j < kRejected; ++j) reply("rejected", job_id(j));
    reply("queued", "a");
    const auto queued = std::chrono::steady_clock::now();
    for (int j = 0; j < kRejected; ++j) {
      if (reader.read_line(kRecvMs, line) != RecvStatus::kLine) return;
      resend_ms.push_back(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - queued)
              .count());
    }
    reply("done", "a");
    for (int j = 0; j < kRejected; ++j) {
      reply("queued", job_id(j));
      reply("done", job_id(j));
    }
    ::close(fd);
  });

  RetryPolicy policy;
  policy.seed = 7;
  policy.base_backoff_ms = kBaseMs;
  policy.max_backoff_ms = 2000;
  RetryingClient client([&path] { return LineClient::connect_unix(path); },
                        policy);
  ASSERT_TRUE(client.submit("a", "{\"op\": \"submit\", \"id\": \"a\"}"));
  for (int j = 0; j < kRejected; ++j) {
    ASSERT_TRUE(client.submit(
        job_id(j), "{\"op\": \"submit\", \"id\": \"" + job_id(j) + "\"}"));
  }
  int done = 0;
  while (done <= kRejected) {
    const auto event = client.recv_event(kRecvMs);
    ASSERT_TRUE(event.has_value());
    if (event_kind(*event) == "done") ++done;
  }
  ::shutdown(listener, SHUT_RDWR);
  daemon.join();
  ::close(listener);
  std::filesystem::remove(path);

  ASSERT_EQ(resend_ms.size(), std::size_t{kRejected});
  EXPECT_EQ(client.rejected_retries(), std::uint64_t{kRejected});
  EXPECT_EQ(client.pending(), 0u);
  // One base backoff plus room for a slow scheduler, far below kHintMs.
  EXPECT_LT(resend_ms.back(), kBaseMs + 100);
}

#endif

// ---------------------------------------------------------------------------
// The acceptance chaos proof: SIGKILL the real daemon mid-campaign, then
// restart on the same cache directory — the interrupted campaign resumes
// from its journal and the answer is byte-identical to a clean run.  The
// daemon's worker dies with it and never touches the journal again.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

struct Daemon {
  pid_t pid = -1;
  std::string stdout_path;
  int raw_status = -1;
  bool reaped = false;

  ~Daemon() {
    if (pid > 0 && !reaped) {
      ::kill(pid, SIGKILL);
      (void)wait();
    }
  }

  int wait() {
    if (pid > 0 && !reaped) {
      ::waitpid(pid, &raw_status, 0);
      reaped = true;
    }
    return raw_status;
  }

  std::string stdout_text() const {
    std::ifstream in(stdout_path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
};

Daemon spawn_daemon(const std::vector<std::string>& flags,
                    const std::string& tag) {
  Daemon daemon;
  daemon.stdout_path = testing::TempDir() + "chaos_daemon_" + tag + ".log";
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(daemon.stdout_path.c_str(),
                          O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<std::string> args;
    args.push_back(MEGFLOOD_SERVE_PATH);
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(MEGFLOOD_SERVE_PATH, argv.data());
    ::_exit(127);
  }
  daemon.pid = pid;
  return daemon;
}

// Polls until the daemon's socket accepts, or fails the test if the
// daemon exited first.
bool await_socket(Daemon& daemon, const std::string& socket_path) {
  for (int i = 0; i < 200; ++i) {
    int status = 0;
    if (::waitpid(daemon.pid, &status, WNOHANG) == daemon.pid) {
      daemon.raw_status = status;
      daemon.reaped = true;
      return false;  // died before listening
    }
    try {
      LineClient probe = LineClient::connect_unix(socket_path, 250);
      return true;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return false;
}

// Submits `line` and returns the done event, riding out disconnects and
// rejections with the retrying client.
std::optional<std::string> submit_and_await_done(const std::string& socket,
                                                 const std::string& id,
                                                 const std::string& line) {
  RetryPolicy policy;
  policy.seed = 13;
  policy.base_backoff_ms = 20;
  policy.max_backoff_ms = 500;
  policy.connect_timeout_ms = 5000;
  RetryingClient client(
      [&socket, &policy] {
        return LineClient::connect_unix(socket, policy.connect_timeout_ms);
      },
      policy);
  if (!client.submit(id, line)) return std::nullopt;
  for (int i = 0; i < 1000; ++i) {
    const auto event = client.recv_event(kRecvMs);
    if (!event) return std::nullopt;
    if (event_kind(*event) == "done") return event;
  }
  return std::nullopt;
}

#if defined(__SANITIZE_THREAD__)
#define MEGFLOOD_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MEGFLOOD_TEST_TSAN 1
#endif
#endif

// How long a worker may take to end once its daemon is gone.
// ThreadSanitizer sleeps 1 s (its atexit_sleep_ms) before any exit of a
// process with live threads, a worker's _exit included.
#if defined(MEGFLOOD_TEST_TSAN)
constexpr int kWorkerExitMs = 2000;
#else
constexpr int kWorkerExitMs = 1000;
#endif

// A daemon on `socket` whose campaigns journal under `cache_dir` and stall
// for kStallMs in trial 3, after three durable trials; a worker left
// running would record that trial after its daemon's death.
constexpr int kStallMs = kWorkerExitMs + 500;

Daemon spawn_stalling_daemon(const std::string& socket,
                             const std::string& cache_dir,
                             const std::string& tag) {
  return spawn_daemon({"--socket=" + socket, "--workers=1",
                       "--cache_dir=" + cache_dir,
                       "--inject=slow:trial=3,ms=" + std::to_string(kStallMs)},
                      tag);
}

// Reads events until a trial_done reports `completed` trials.
bool await_progress(LineClient& client, double completed) {
  while (const auto line = client.recv_line(kRecvMs)) {
    if (event_kind(*line) != "trial_done") continue;
    std::string error;
    const auto parsed = parse_json(*line, error);  // owns what find() returns
    const JsonValue* done = parsed ? parsed->find("completed") : nullptr;
    if (done != nullptr && done->number >= completed) return true;
  }
  return false;
}

// The pid of the daemon's first live worker, from its stats event; -1
// when there is none.
pid_t worker_pid(const std::string& socket) {
  LineClient client = LineClient::connect_unix(socket, 5000);
  if (!client.send_line("{\"op\":\"stats\"}")) return -1;
  while (const auto line = client.recv_line(kRecvMs)) {
    if (event_kind(*line) != "stats") continue;
    std::string error;
    const auto stats = parse_json(*line, error);
    const JsonValue* workers = stats ? stats->find("workers") : nullptr;
    if (workers == nullptr) return -1;
    for (const JsonValue& slot : workers->array) {
      const JsonValue* pid = slot.find("pid");
      if (pid != nullptr && pid->number > 0) {
        return static_cast<pid_t>(pid->number);
      }
    }
    return -1;
  }
  return -1;
}

// True once `pid` has exited: no such process, or a zombie its new
// parent has not reaped.
bool process_gone(pid_t pid) {
  if (::kill(pid, 0) != 0) return errno == ESRCH;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  return paren != std::string::npos && paren + 2 < stat.size() &&
         stat[paren + 2] == 'Z';
}

std::vector<std::filesystem::path> journals_in(const std::string& dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".mfj") out.push_back(entry.path());
  }
  return out;
}

// A worker must not outlive a SIGKILLed daemon: left alone, it would
// finish its stalled trial and append the record to a journal that a
// restarted daemon may already be resuming.
TEST(ServeChaos, WorkerDiesWithASigkilledDaemon) {
  using Clock = std::chrono::steady_clock;
  const std::string cache_dir = fresh_dir("chaos_orphan_cache");
  const std::string socket = testing::TempDir() + "chaos_orphan.sock";
  Daemon victim = spawn_stalling_daemon(socket, cache_dir, "orphan");
  ASSERT_TRUE(await_socket(victim, socket)) << victim.stdout_text();
  LineClient client = LineClient::connect_unix(socket, 5000);
  ASSERT_TRUE(client.send_line(submit_line("j", 78, 6, 32)));
  ASSERT_TRUE(await_progress(client, 3));
  const pid_t worker = worker_pid(socket);
  ASSERT_GT(worker, 0);
  const std::vector<std::filesystem::path> journals = journals_in(cache_dir);
  ASSERT_EQ(journals.size(), 1u);
  const auto size = std::filesystem::file_size(journals[0]);

  const Clock::time_point killed = Clock::now();
  ::kill(victim.pid, SIGKILL);
  victim.wait();
  bool gone = process_gone(worker);
  while (!gone &&
         Clock::now() - killed < std::chrono::milliseconds(kWorkerExitMs)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    gone = process_gone(worker);
  }
  EXPECT_TRUE(gone) << "worker " << worker << " outlived its daemon by "
                    << kWorkerExitMs << " ms";
  // Past the end of the stalled trial, whose record a live worker would
  // have appended by now.
  std::this_thread::sleep_until(killed +
                                std::chrono::milliseconds(kStallMs + 500));
  EXPECT_EQ(std::filesystem::file_size(journals[0]), size);
  if (!gone) ::kill(worker, SIGKILL);
}

TEST(ServeChaos, SigkilledDaemonResumesJournaledCampaignByteIdentically) {
  const std::string cache_dir = fresh_dir("chaos_kill_cache");
  const std::string socket = testing::TempDir() + "chaos_kill.sock";
  const std::string campaign = submit_line("j", 77, 6, 32);

  // Phase 1: SIGKILL the daemon while its campaign stalls in trial 3, with
  // three trials durably journaled under --cache_dir.
  {
    Daemon victim = spawn_stalling_daemon(socket, cache_dir, "victim");
    ASSERT_TRUE(await_socket(victim, socket)) << victim.stdout_text();
    LineClient client = LineClient::connect_unix(socket, 5000);
    ASSERT_TRUE(client.send_line(campaign));
    ASSERT_TRUE(await_progress(client, 3));
    ::kill(victim.pid, SIGKILL);
    const int raw = victim.wait();
    ASSERT_TRUE(WIFSIGNALED(raw) && WTERMSIG(raw) == SIGKILL)
        << "raw status " << raw;
  }
  // The crash left a journal, not a cache entry.
  ASSERT_EQ(journals_in(cache_dir).size(), 1u);

  // Phase 2: restart on the same directory, with no fault injected; the
  // journal is recovered and the same submission completes.
  std::string resumed_done;
  {
    Daemon revived = spawn_daemon(
        {"--socket=" + socket, "--workers=1", "--cache_dir=" + cache_dir},
        "revived");
    ASSERT_TRUE(await_socket(revived, socket)) << revived.stdout_text();
    const auto done = submit_and_await_done(socket, "j", campaign);
    ASSERT_TRUE(done.has_value()) << revived.stdout_text();
    resumed_done = *done;
    LineClient stopper = LineClient::connect_unix(socket, 5000);
    ASSERT_TRUE(stopper.send_line("{\"op\":\"shutdown\"}"));
    const int raw = revived.wait();
    EXPECT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 0)
        << "raw status " << raw;
    EXPECT_NE(revived.stdout_text().find("recovered 1 interrupted"),
              std::string::npos)
        << revived.stdout_text();
  }

  // Phase 3: a pristine daemon on a fresh directory answers the same
  // campaign from scratch — the resumed answer must match byte for byte.
  const std::string fresh_cache = fresh_dir("chaos_kill_fresh");
  {
    Daemon pristine = spawn_daemon(
        {"--socket=" + socket, "--workers=1", "--cache_dir=" + fresh_cache},
        "pristine");
    ASSERT_TRUE(await_socket(pristine, socket)) << pristine.stdout_text();
    const auto done = submit_and_await_done(socket, "j", campaign);
    ASSERT_TRUE(done.has_value()) << pristine.stdout_text();
    ASSERT_FALSE(results_suffix(*done).empty());
    EXPECT_EQ(results_suffix(resumed_done), results_suffix(*done))
        << "resumed campaign is not byte-identical to a clean run";
    LineClient stopper = LineClient::connect_unix(socket, 5000);
    ASSERT_TRUE(stopper.send_line("{\"op\":\"shutdown\"}"));
    pristine.wait();
  }
}

#else

TEST(ServeChaos, DISABLED_KillRestartNeedsPosix) {}

#endif  // POSIX

}  // namespace
}  // namespace megflood::serve
