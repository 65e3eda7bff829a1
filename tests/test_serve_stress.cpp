// Concurrent-clients stress for the serve stack, sized for the TSan
// shard (CMakePresets.json tsan-threaded): several client threads hammer
// one in-process server with interleaved submits (many of them identical,
// so the cache races hits against fresh runs), plus protocol abuse mixed
// in.  The assertions are about integrity — every job reaches a terminal
// event, cached bytes stay identical — while TSan checks the scheduler,
// cache, and outbox locking underneath.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

#ifndef MEGFLOOD_SERVE_PATH
#error "MEGFLOOD_SERVE_PATH must point at the megflood_serve binary"
#endif

namespace megflood::serve {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kJobsPerClient = 12;
constexpr std::size_t kDistinct = 5;

std::string submit_line(const std::string& id, std::uint64_t seed) {
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"args\":[\"--model=fixed\",\"--n=16\",\"--trials=2\","
         "\"--seed=" +
         std::to_string(seed) + "\"]}";
}

TEST(ServeStress, ConcurrentClientsAllJobsResolveWithIdenticalBytes) {
  ServerConfig config;
  config.unix_path = testing::TempDir() + "megflood_serve_stress.sock";
  config.workers = 2;
  config.worker_binary = MEGFLOOD_SERVE_PATH;
  auto server = std::make_unique<Server>(config);
  std::atomic<bool> stop{false};
  std::thread serve_thread(
      [&server, &stop] { (void)server->serve(stop); });

  std::mutex tally_mutex;
  std::map<std::string, std::string> bytes_by_key;  // campaign -> result
  std::size_t done = 0, errors = 0, mismatches = 0;

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client = LineClient::connect_unix(config.unix_path);
      std::size_t pending = 0;
      for (std::size_t j = 0; j < kJobsPerClient; ++j) {
        const std::string id =
            "c" + std::to_string(c) + "-" + std::to_string(j);
        ASSERT_TRUE(client.send_line(
            submit_line(id, 1 + (c * kJobsPerClient + j) % kDistinct)));
        ++pending;
        if (j % 5 == 4) {  // interleave abuse; must cost one error event
          ASSERT_TRUE(client.send_line("{broken json"));
        }
      }
      while (pending > 0) {
        const auto line = client.recv_line(30000);
        ASSERT_TRUE(line.has_value()) << "client " << c << " starved";
        std::string parse_error;
        const auto event = parse_json(*line, parse_error);
        ASSERT_TRUE(event.has_value()) << *line;
        const JsonValue* kind = event->find("event");
        ASSERT_NE(kind, nullptr);
        if (kind->string == "error") {
          std::lock_guard<std::mutex> lock(tally_mutex);
          ++errors;
          continue;
        }
        if (kind->string != "done") continue;
        --pending;
        // Track result bytes per campaign key across all clients.
        const JsonValue* results = event->find("results");
        ASSERT_NE(results, nullptr);
        ASSERT_EQ(results->array.size(), 1u);
        const JsonValue* key = results->array[0].find("key");
        ASSERT_NE(key, nullptr);
        const std::size_t at = line->find("\"result\": ");
        ASSERT_NE(at, std::string::npos) << *line;
        const std::string result_bytes = line->substr(at);
        std::lock_guard<std::mutex> lock(tally_mutex);
        ++done;
        const auto [it, inserted] =
            bytes_by_key.emplace(key->string, result_bytes);
        if (!inserted && it->second != result_bytes) ++mismatches;
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(done, kClients * kJobsPerClient);
  EXPECT_EQ(bytes_by_key.size(), kDistinct);
  EXPECT_EQ(mismatches, 0u);
  // Every interleaved abuse line cost exactly one error event.
  EXPECT_EQ(errors, kClients * (kJobsPerClient / 5));

  stop.store(true);
  serve_thread.join();
}

TEST(ServeStress, DisconnectingMidJobIsHarmless) {
  ServerConfig config;
  config.unix_path = testing::TempDir() + "megflood_serve_stress2.sock";
  config.workers = 2;
  config.worker_binary = MEGFLOOD_SERVE_PATH;
  auto server = std::make_unique<Server>(config);
  std::atomic<bool> stop{false};
  std::thread serve_thread(
      [&server, &stop] { (void)server->serve(stop); });

  // Clients that submit big sweeps and vanish without reading replies;
  // the server must reap them and keep serving a polite client.
  for (int round = 0; round < 3; ++round) {
    LineClient rude = LineClient::connect_unix(config.unix_path);
    ASSERT_TRUE(rude.send_line(
        "{\"op\":\"submit\",\"id\":\"rude\",\"args\":[\"--model=fixed\","
        "\"--trials=2\"],\"sweep\":\"n=16:256:16\"}"));
    rude.close();
  }
  LineClient polite = LineClient::connect_unix(config.unix_path);
  ASSERT_TRUE(polite.send_line(submit_line("polite", 1)));
  bool done = false;
  for (int i = 0; i < 1000 && !done; ++i) {
    const auto line = polite.recv_line(30000);
    ASSERT_TRUE(line.has_value());
    std::string parse_error;
    const auto event = parse_json(*line, parse_error);
    ASSERT_TRUE(event.has_value());
    const JsonValue* kind = event->find("event");
    done = kind && kind->string == "done";
  }
  EXPECT_TRUE(done);

  stop.store(true);
  serve_thread.join();
}

}  // namespace
}  // namespace megflood::serve
