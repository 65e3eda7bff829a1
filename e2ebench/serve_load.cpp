// e2e_serve_load — closed-loop client for the serve_mixed workload.
//
//   e2e_serve_load --socket=PATH --launched_at=SECONDS --warm=S1,S2,...
//                  [--seconds=T] [--seed=N] [--fresh_base=F]
//                  [--bad_submit=0|1] [--trace=0|1]
//
// 1. Connects (retrying until the daemon accepts) and records how long
//    after `launched_at` (CLOCK_MONOTONIC seconds, the launcher's clock)
//    the daemon accepted.
// 2. Prefills the warm set: one edge-MEG campaign per warm seed, all
//    pipelined on one connection; their result bytes are kept.
// 3. With --seconds > 0, runs the load: one thread per connection
//    (kConnections), each keeping kDepth jobs outstanding and sending the
//    next only when one finishes.  A job is a cache hit (a warm seed) with
//    probability kHitPermille/1000, otherwise a miss (a seed never used
//    before).
//    Submission stops after T seconds; outstanding jobs drain.
//
// Every job is timestamped at submit and at its terminal event (ms since
// load start).  With --trace=1 the client also stamps queued, running and
// the last trial_done, counts each job's events and bytes, and reads
// `stats` before and after the load (outside the timed window).  Hit bytes
// are compared with the prefill bytes, and `cached` must say hit for hits
// and miss for misses.  --bad_submit plants one job with an unknown model
// (its error event must count as a failure).
//
// stdout: one JSON object with the prefill timings, the raw stats events,
// one column per job field, and the first K miss results (seed + bytes)
// (kMissSamples) so the caller can check them against megflood_run.  Exit 0 unless the
// daemon could not be reached or a flag is malformed (2).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/format.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using megflood::serve::JsonValue;
using megflood::serve::LineClient;

constexpr int kRecvTimeoutMs = 60000;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 2;
constexpr std::uint64_t kHitPermille = 250;
constexpr std::size_t kMissSamples = 3;

struct Options {
  std::string socket_path;
  double launched_at = 0.0;
  std::vector<std::uint64_t> warm;
  double seconds = 0.0;
  std::uint64_t seed = 1;
  std::uint64_t fresh_base = 1'000'000;
  bool bad_submit = false;
  bool trace = false;
};

// Printed as its number: 0 never resolved, 1 done, 2 terminal failure.
enum class Outcome { kPending, kDone, kFailed };

struct Job {
  std::string id;
  bool hit = false;
  bool bad = false;
  std::uint64_t seed = 0;
  double submit_ms = -1, queued_ms = -1, running_ms = -1, last_trial_ms = -1,
         end_ms = -1;
  std::size_t events = 0;
  std::size_t bytes = 0;
  Outcome outcome = Outcome::kPending;
  bool mismatch = false;
  std::string result;  // misses only, for the caller's sample check
};

std::string submit_line(const std::string& id, std::uint64_t seed,
                        bool bad) {
  const std::string model = bad ? "no_such_model" : "edge_meg";
  return "{\"op\":\"submit\",\"id\":\"" + id + "\",\"args\":[\"--model=" +
         model +
         "\",\"--n=256\",\"--alpha=0.0078125\",\"--q=0.3\",\"--trials=4\","
         "\"--seed=" +
         std::to_string(seed) + "\"]}";
}

// The verbatim `"result": {...}` object of a done event (the bytes the
// server spliced from its cache or its worker).
std::string extract_result(const std::string& line) {
  const std::size_t marker = line.find("\"result\": {");
  if (marker == std::string::npos) return "";
  const std::size_t start = marker + 10;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = start; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return line.substr(start, i + 1 - start);
    }
  }
  return "";
}

std::optional<JsonValue> parse(const std::string& line) {
  std::string error;
  auto value = megflood::serve::parse_json(line, error);
  if (!value || !value->is_object()) return std::nullopt;
  return value;
}

std::string field_string(const JsonValue& event, const char* key) {
  const JsonValue* field = event.find(key);
  return field && field->is_string() ? field->string : "";
}

double field_number(const JsonValue& event, const char* key) {
  const JsonValue* field = event.find(key);
  return field && field->is_number() ? field->number : -1.0;
}

LineClient connect_retrying(const std::string& path) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (true) {
    try {
      return LineClient::connect_unix(path, 1000);
    } catch (const std::runtime_error&) {
      if (Clock::now() > give_up) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

// The raw `stats` event, read on a fresh connection.
std::string read_stats(const std::string& path) {
  LineClient client = connect_retrying(path);
  if (!client.send_line("{\"op\":\"stats\"}")) {
    throw std::runtime_error("stats: send failed");
  }
  while (auto line = client.recv_line(kRecvTimeoutMs)) {
    if (line->rfind("{\"event\": \"stats\"", 0) == 0) return *line;
  }
  throw std::runtime_error("stats: no reply");
}

// One pipelined batch on one connection: the warm-set prefill.  Returns
// seed -> result bytes; a warm job that does not finish cleanly is fatal.
std::map<std::uint64_t, std::string> prefill(LineClient& client,
                                             const Options& options) {
  std::map<std::string, std::uint64_t> pending;
  for (std::uint64_t seed : options.warm) {
    const std::string id = "w" + std::to_string(seed);
    if (!client.send_line(submit_line(id, seed, false))) {
      throw std::runtime_error("prefill: send failed");
    }
    pending.emplace(id, seed);
  }
  std::map<std::uint64_t, std::string> bytes;
  while (!pending.empty()) {
    const auto line = client.recv_line(kRecvTimeoutMs);
    if (!line) throw std::runtime_error("prefill: daemon went quiet");
    const auto event = parse(*line);
    if (!event) throw std::runtime_error("prefill: bad event " + *line);
    const std::string kind = field_string(*event, "event");
    const auto it = pending.find(field_string(*event, "id"));
    if (kind == "done" && it != pending.end()) {
      bytes[it->second] = extract_result(*line);
      pending.erase(it);
    } else if (kind != "queued" && kind != "running" &&
               kind != "trial_done") {
      throw std::runtime_error("prefill: unexpected event " + *line);
    }
  }
  return bytes;
}

double ms_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

// One closed-loop connection.  Owns its jobs; nothing is shared with the
// other connections except the read-only warm bytes.
void run_connection(std::size_t conn, const Options& options,
                    const std::map<std::uint64_t, std::string>& warm_bytes,
                    Clock::time_point origin, Clock::time_point deadline,
                    std::vector<Job>& jobs) {
  std::mt19937_64 rng(options.seed * 1000003u + conn);
  LineClient client = connect_retrying(options.socket_path);
  std::map<std::string, std::size_t> outstanding;  // id -> index in jobs
  std::uint64_t fresh = options.fresh_base + conn * 10'000'000u;
  bool plant = options.bad_submit && conn == 0;

  while (true) {
    while (outstanding.size() < kDepth && Clock::now() < deadline) {
      Job job;
      job.id = "c" + std::to_string(conn) + "-" + std::to_string(jobs.size());
      if (plant) {
        job.bad = true;
        plant = false;
      } else if (rng() % 1000 < kHitPermille) {
        job.hit = true;
        job.seed = options.warm[rng() % options.warm.size()];
      } else {
        job.seed = fresh++;
      }
      job.submit_ms = ms_since(origin);
      if (!client.send_line(submit_line(job.id, job.seed, job.bad))) {
        job.outcome = Outcome::kFailed;
        job.end_ms = ms_since(origin);
        jobs.push_back(std::move(job));
        return;  // connection broken: nothing else can resolve here
      }
      outstanding.emplace(job.id, jobs.size());
      jobs.push_back(std::move(job));
    }
    if (outstanding.empty()) return;

    const auto line = client.recv_line(kRecvTimeoutMs);
    if (!line) return;  // outstanding jobs stay pending = unresolved
    const double now_ms = ms_since(origin);
    const auto event = parse(*line);
    if (!event) continue;
    const auto it = outstanding.find(field_string(*event, "id"));
    if (it == outstanding.end()) continue;
    Job& job = jobs[it->second];
    const std::string kind = field_string(*event, "event");
    if (options.trace) {
      ++job.events;
      job.bytes += line->size() + 1;
      if (kind == "queued") job.queued_ms = now_ms;
      if (kind == "running") job.running_ms = now_ms;
      if (kind == "trial_done") job.last_trial_ms = now_ms;
    }
    if (kind == "queued" || kind == "running" || kind == "trial_done" ||
        kind == "deadline_exceeded") {
      continue;
    }
    if (kind == "done") {
      job.end_ms = now_ms;
      job.outcome = Outcome::kDone;
      const std::string result = extract_result(*line);
      const bool cached = field_number(*event, "cache_hits") == 1.0;
      if (job.hit) {
        const auto warm = warm_bytes.find(job.seed);
        job.mismatch = !cached || warm == warm_bytes.end() ||
                       warm->second != result;
      } else {
        job.mismatch = cached || result.empty();
        job.result = result;
      }
      outstanding.erase(it);
    } else {
      // error / rejected / failed / cancelled: terminal, not a result.
      job.end_ms = now_ms;
      job.outcome = Outcome::kFailed;
      outstanding.erase(it);
    }
  }
}

template <typename F>
std::string column(const std::vector<Job>& jobs, F value) {
  std::string out = "[";
  char buffer[32];
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%.4f", i ? "," : "",
                  static_cast<double>(value(jobs[i])));
    out += buffer;
  }
  return out + "]";
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    seeds.push_back(std::stoull(text.substr(start, comma - start)));
    start = comma + 1;
  }
  return seeds;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "socket") {
      options.socket_path = value;
    } else if (key == "launched_at") {
      options.launched_at = std::stod(value);
    } else if (key == "warm") {
      options.warm = parse_seeds(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "fresh_base") {
      options.fresh_base = std::stoull(value);
    } else if (key == "bad_submit") {
      options.bad_submit = value == "1";
    } else if (key == "trace") {
      options.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (options.socket_path.empty() || options.warm.empty()) {
    throw std::invalid_argument("need --socket and --warm");
  }
  return options;
}

int run(const Options& options) {
  LineClient first = connect_retrying(options.socket_path);
  const double accepted_at =
      std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
  const Clock::time_point prefill_start = Clock::now();
  const std::map<std::uint64_t, std::string> warm_bytes =
      prefill(first, options);
  const double prefill_s =
      std::chrono::duration<double>(Clock::now() - prefill_start).count();
  first.close();

  std::string out = "{\"accept_s\": " +
                    std::to_string(accepted_at - options.launched_at) +
                    ", \"prefill_s\": " + std::to_string(prefill_s) +
                    ", \"warm\": " + std::to_string(warm_bytes.size());
  if (options.seconds <= 0.0) {
    std::cout << out << "}\n";
    return 0;
  }

  const std::string stats_before =
      options.trace ? read_stats(options.socket_path) : "null";
  std::vector<std::vector<Job>> per_connection(kConnections);
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (std::size_t conn = 0; conn < kConnections; ++conn) {
    threads.emplace_back([&, conn] {
      try {
        run_connection(conn, options, warm_bytes, origin, deadline,
                       per_connection[conn]);
      } catch (const std::exception& error) {
        // Jobs already submitted stay pending and count as unresolved.
        std::cerr << "e2e_serve_load: connection " << conn << ": "
                  << error.what() << "\n";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string stats_after =
      options.trace ? read_stats(options.socket_path) : "null";

  std::vector<Job> jobs;
  for (std::vector<Job>& conn_jobs : per_connection) {
    for (Job& job : conn_jobs) jobs.push_back(std::move(job));
  }
  std::string samples = "[";
  std::size_t sampled = 0;
  for (const Job& job : jobs) {
    if (sampled == kMissSamples) break;
    if (job.hit || job.bad || job.outcome != Outcome::kDone) continue;
    samples += std::string(sampled ? ", " : "") + "{\"seed\": " +
               std::to_string(job.seed) +
               ", \"result\": " + megflood::json_quote(job.result) + "}";
    ++sampled;
  }
  samples += "]";

  out += ", \"stats_before\": " + stats_before +
         ", \"stats_after\": " + stats_after +
         ", \"hit\": " + column(jobs, [](const Job& j) { return j.hit; }) +
         ", \"outcome\": " + column(jobs, [](const Job& j) {
           return static_cast<int>(j.outcome);
         }) +
         ", \"mismatch\": " +
         column(jobs, [](const Job& j) { return j.mismatch; }) +
         ", \"submit_ms\": " +
         column(jobs, [](const Job& j) { return j.submit_ms; }) +
         ", \"queued_ms\": " +
         column(jobs, [](const Job& j) { return j.queued_ms; }) +
         ", \"running_ms\": " +
         column(jobs, [](const Job& j) { return j.running_ms; }) +
         ", \"last_trial_ms\": " +
         column(jobs, [](const Job& j) { return j.last_trial_ms; }) +
         ", \"end_ms\": " + column(jobs, [](const Job& j) { return j.end_ms; }) +
         ", \"events\": " +
         column(jobs, [](const Job& j) { return j.events; }) +
         ", \"bytes\": " + column(jobs, [](const Job& j) { return j.bytes; }) +
         ", \"miss_samples\": " + samples;
  std::cout << out << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "e2e_serve_load: " << error.what() << "\n";
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "e2e_serve_load: " << error.what() << "\n";
    return 1;
  }
}
