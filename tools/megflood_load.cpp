// megflood_load — the load-test harness for megflood_serve: opens N
// connections, pushes thousands of concurrent jobs drawn from a pool of
// K distinct campaigns, and reports throughput, latency quantiles and
// the cache-hit ratio.  It also cross-checks result *bytes*: every done
// event's result object is compared against the first bytes seen for the
// same campaign key, so a cache that is anything but bit-identical fails
// the run — this is the CI assertion that cached results equal fresh
// ones (ISSUE 8).
//
//   $ megflood_load --socket=/tmp/megflood.sock --jobs=1200
//         --connections=40 --distinct=40 --min_hit_ratio=0.9
//
// With --retry each connection runs through serve/client's
// RetryingClient (ISSUE 9): dropped connections are survived by
// reconnect + idempotent resubmit, and queue_full/draining rejections
// wait out the server's retry_after_ms hint — so a chaos run (daemon
// kill -9 + restart, or a saturating queue) is expected to exit 0 with
// every job resolved.  Without --retry a rejection or disconnect is a
// hard failure, reported distinctly from a receive timeout.
//
// Exit codes: 0 clean; 1 on any protocol error, unresolved job,
// rejected job (without --retry), byte-identity mismatch, or a hit
// ratio below --min_hit_ratio; 2 on a bad flag.  A job is *unresolved*
// when no terminal event (done/cancelled/error/rejected) ever arrived
// for it — unresolved jobs are never silently dropped from the tally.
// Latency is wall clock (steady_clock) from submit write to done
// receipt.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "util/parse.hpp"

namespace {

using megflood::serve::JsonValue;
using megflood::serve::LineClient;
using megflood::serve::RecvStatus;
using megflood::serve::RetryingClient;
using megflood::serve::RetryPolicy;

struct Options {
  std::string socket_path;
  std::uint16_t port = 0;
  bool use_tcp = false;
  std::size_t connections = 8;
  std::size_t jobs = 1000;
  std::size_t distinct = 16;
  std::size_t trials = 4;
  std::size_t n = 64;
  double min_hit_ratio = -1.0;  // < 0: report only, assert nothing
  int timeout_ms = 60000;
  bool retry = false;
  bool print_stats = false;  // query and print daemon stats after the run
  std::string dump_results;  // file for sorted "key<TAB>result" lines
};

// Shared tallies; one mutex, touched once per event — the harness itself
// must not become the bottleneck it is measuring.
struct Tally {
  std::mutex mutex;
  std::vector<double> latencies_ms;
  std::size_t done = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;  // terminal `failed` events (worker quarantine)
  std::size_t errors = 0;
  std::size_t rejected = 0;
  std::size_t unresolved = 0;
  std::size_t timeouts = 0;     // receive windows that elapsed empty
  std::size_t disconnects = 0;  // server-gone while jobs were pending
  std::size_t subjobs = 0;
  std::size_t cached_subjobs = 0;
  std::size_t identity_mismatches = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resubmits = 0;
  std::uint64_t rejected_retries = 0;
  std::map<std::string, std::string> first_bytes;  // campaign key -> result
  std::vector<std::string> sample_errors;
  std::vector<std::string> sample_failed;  // first few failed event lines
};

// The balanced {...} starting at line[start] == '{', string-aware (braces
// inside JSON strings, e.g. in a warning message, do not count).
std::string extract_object(const std::string& line, std::size_t start) {
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
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) return line.substr(start, i + 1 - start);
    }
  }
  return "";
}

std::string submit_line(const std::string& id, const Options& options,
                        std::size_t variant) {
  // The fixed-topology baseline model floods in O(diameter) rounds —
  // cheap enough that the harness measures the server, not the model.
  // Distinct campaigns differ by seed, which changes the campaign key
  // without changing the cost.
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"args\":[\"--model=fixed\",\"--n=" +
         std::to_string(options.n) +
         "\",\"--trials=" + std::to_string(options.trials) +
         "\",\"--seed=" + std::to_string(1 + variant) +
         "\",\"--max_rounds=100000\"]}";
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double position = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * fraction;
}

using Clock = std::chrono::steady_clock;
using PendingMap = std::map<std::string, Clock::time_point>;

// Folds one received event line into the tallies.  Terminal events
// (done / cancelled / error-with-id / rejected) erase the job from
// `pending`; anything the connection loop never resolves stays there and
// is counted unresolved at the end — jobs cannot vanish silently.
void process_event(const std::string& line, PendingMap& pending,
                   Tally& tally) {
  std::string parse_error;
  const auto event = megflood::serve::parse_json(line, parse_error);
  if (!event || !event->is_object()) {
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.errors;
    tally.sample_errors.push_back("unparseable event: " + line);
    return;
  }
  const JsonValue* kind = event->find("event");
  if (!kind || !kind->is_string()) return;
  const JsonValue* id_field = event->find("id");
  const std::string id =
      id_field && id_field->is_string() ? id_field->string : "";

  if (kind->string == "error") {
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.errors;
    if (tally.sample_errors.size() < 5) {
      tally.sample_errors.push_back(line);
    }
    if (!id.empty()) pending.erase(id);
    return;
  }
  if (kind->string == "rejected") {
    // With --retry only terminal rejections (too_large) reach here —
    // queue_full/draining are absorbed inside RetryingClient.
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.rejected;
    if (tally.sample_errors.size() < 5) {
      tally.sample_errors.push_back(line);
    }
    if (!id.empty()) pending.erase(id);
    return;
  }
  if (kind->string == "cancelled") {
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.cancelled;
    pending.erase(id);
    return;
  }
  if (kind->string == "failed") {
    // Terminal: a sub-job quarantined its campaign (worker_crash).  The
    // job is resolved — by design this is a clean outcome for the
    // harness (the daemon survived and answered), so it is tallied and
    // sampled but does not fail the run.
    std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.failed;
    if (tally.sample_failed.size() < 5) tally.sample_failed.push_back(line);
    pending.erase(id);
    return;
  }
  if (kind->string != "done") return;  // queued / running / trial_done

  const auto submitted = pending.find(id);
  if (submitted == pending.end()) return;
  const double latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                submitted->second)
          .count();
  pending.erase(submitted);

  std::size_t subjobs = 0;
  std::size_t cached = 0;
  if (const JsonValue* field = event->find("subjobs")) {
    subjobs = static_cast<std::size_t>(field->number);
  }
  if (const JsonValue* field = event->find("cache_hits")) {
    cached = static_cast<std::size_t>(field->number);
  }
  // Byte-identity: the raw result object of the (single) sub-job,
  // compared against the first bytes ever seen for its campaign key.
  std::string key;
  if (const JsonValue* results = event->find("results")) {
    if (results->is_array() && !results->array.empty()) {
      if (const JsonValue* key_field = results->array[0].find("key")) {
        key = key_field->string;
      }
    }
  }
  std::string result_bytes;
  const std::size_t marker = line.find("\"result\": {");
  if (marker != std::string::npos) {
    result_bytes = extract_object(line, marker + 10);
  }

  std::lock_guard<std::mutex> lock(tally.mutex);
  ++tally.done;
  tally.latencies_ms.push_back(latency_ms);
  tally.subjobs += subjobs;
  tally.cached_subjobs += cached;
  if (!key.empty() && !result_bytes.empty()) {
    const auto [it, inserted] = tally.first_bytes.emplace(key, result_bytes);
    if (!inserted && it->second != result_bytes) {
      ++tally.identity_mismatches;
      if (tally.sample_errors.size() < 5) {
        tally.sample_errors.push_back("byte mismatch for key: " + key);
      }
    }
  }
}

// Jobs one connection keeps in flight.  The daemon reads a connection's
// next request only once its answers to the earlier ones are sent, so a
// client must read while it submits: one that sent a whole batch first
// would wedge once the socket buffers fill.  A connection reads what has
// arrived after each submit, and waits for a job to end at this many.
constexpr std::size_t kWindow = 128;

// One connection: submit everything, reading between submits, until the
// pending map empties, a receive window elapses (timeout), or the server
// goes away (disconnect).  Plain, the two failures are tallied apart, so
// a wedged daemon and a crashed one are distinguishable in the report.
// With --retry the transport absorbs disconnects (reconnect + resubmit of
// everything pending) and queue_full/draining rejections (backoff
// honoring retry_after_ms), and a failed receive is a timeout, or a
// server that stayed unreachable through a full backoff cycle.
void run_connection(std::size_t thread_index, std::size_t first_job,
                    std::size_t job_count, const Options& options,
                    Tally& tally) {
  const auto connect = [&options](int timeout_ms) {
    return options.use_tcp
               ? LineClient::connect_tcp(options.port, timeout_ms)
               : LineClient::connect_unix(options.socket_path, timeout_ms);
  };
  std::optional<RetryingClient> retrying;
  LineClient plain;
  if (options.retry) {
    RetryPolicy policy;
    policy.seed = 0x6d666c6f6164ULL + thread_index;  // per-thread jitter
    policy.connect_timeout_ms = 5000;
    retrying.emplace([connect, policy] {
      return connect(policy.connect_timeout_ms);
    }, policy);
  } else {
    try {
      plain = connect(LineClient::kDefaultTimeoutMs);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(tally.mutex);
      tally.errors += job_count;
      tally.sample_errors.push_back(e.what());
      return;
    }
  }
  RecvStatus status = RecvStatus::kTimeout;  // of the last plain receive
  const auto receive = [&](int timeout_ms) {
    return retrying ? retrying->recv_event(timeout_ms)
                    : plain.recv_line(timeout_ms, &status);
  };

  PendingMap pending;  // id -> submit time
  std::size_t j = 0;   // jobs sent
  while (j < job_count || !pending.empty()) {
    const bool submit = j < job_count && pending.size() < kWindow;
    if (submit) {
      const std::string id =
          "c" + std::to_string(thread_index) + "-" + std::to_string(j);
      const std::string line =
          submit_line(id, options, (first_job + j) % options.distinct);
      const auto start = Clock::now();
      if (!(retrying ? retrying->submit(id, line) : plain.send_line(line))) {
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.disconnects;
        if (retrying) {
          tally.sample_errors.push_back("server unreachable through backoff");
        }
        break;
      }
      pending.emplace(id, start);
      ++j;
    }
    // Read what has arrived; with nothing to send, wait for an event.
    bool read = false;
    while (const auto line =
               receive(submit || read ? 0 : options.timeout_ms)) {
      process_event(*line, pending, tally);
      read = true;
    }
    if (!submit && !read) {
      std::lock_guard<std::mutex> lock(tally.mutex);
      if (retrying || status == RecvStatus::kTimeout) {
        ++tally.timeouts;
      } else {
        ++tally.disconnects;
      }
      break;
    }
  }

  std::lock_guard<std::mutex> lock(tally.mutex);
  tally.unresolved += pending.size() + (job_count - j);
  if (retrying) {
    tally.reconnects += retrying->reconnects();
    tally.resubmits += retrying->resubmits();
    tally.rejected_retries += retrying->rejected_retries();
  }
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  const auto parsed = megflood::parse_whole_u64(value);
  if (!parsed) {
    throw std::invalid_argument(flag + " is not an integer: '" + value + "'");
  }
  return *parsed;
}

void usage(std::ostream& out) {
  out << "usage: megflood_load (--socket=<path> | --port=<n>) [options]\n"
         "  --connections=<n>    concurrent connections (default 8)\n"
         "  --jobs=<n>           total jobs to submit (default 1000)\n"
         "  --distinct=<k>       distinct campaigns in the pool "
         "(default 16)\n"
         "  --trials=<t>         trials per job (default 4)\n"
         "  --n=<nodes>          model size (default 64)\n"
         "  --min_hit_ratio=<x>  fail unless cached/subjobs >= x\n"
         "  --timeout_ms=<ms>    per-connection receive timeout "
         "(default 60000)\n"
         "  --retry              survive disconnects and queue_full\n"
         "                       rejections via reconnect/backoff/resubmit\n"
         "  --stats              print the daemon's stats event after the\n"
         "                       run (worker restarts, quarantines, ...)\n"
         "  --dump_results=<f>   write sorted 'key<TAB>result' lines to f\n"
         "                       (for byte-identity diffs across runs)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool target_given = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      }
      if (arg == "--retry") {
        options.retry = true;
        continue;
      }
      if (arg == "--stats") {
        options.print_stats = true;
        continue;
      }
      const std::size_t equals = arg.find('=');
      if (arg.compare(0, 2, "--") != 0 || equals == std::string::npos) {
        throw std::invalid_argument("unrecognized argument '" + arg + "'");
      }
      const std::string flag = arg.substr(0, equals);
      const std::string value = arg.substr(equals + 1);
      if (flag == "--socket") {
        options.socket_path = value;
        target_given = true;
      } else if (flag == "--port") {
        const std::uint64_t port = parse_u64(flag, value);
        if (port == 0 || port > 65535) {
          throw std::invalid_argument("--port out of range: " + value);
        }
        options.port = static_cast<std::uint16_t>(port);
        options.use_tcp = true;
        target_given = true;
      } else if (flag == "--connections") {
        options.connections = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--jobs") {
        options.jobs = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--distinct") {
        options.distinct = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--trials") {
        options.trials = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--n") {
        options.n = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--min_hit_ratio") {
        const auto ratio = megflood::parse_finite_double(value);
        if (!ratio) {
          throw std::invalid_argument(flag + " is not a finite number: '" +
                                      value + "'");
        }
        options.min_hit_ratio = *ratio;
      } else if (flag == "--timeout_ms") {
        options.timeout_ms = static_cast<int>(parse_u64(flag, value));
      } else if (flag == "--dump_results") {
        options.dump_results = value;
      } else {
        throw std::invalid_argument("unrecognized flag '" + flag + "'");
      }
    }
    if (!target_given) {
      throw std::invalid_argument("one of --socket or --port is required");
    }
    if (options.connections == 0 || options.jobs == 0 ||
        options.distinct == 0 || options.trials == 0) {
      throw std::invalid_argument(
          "--connections, --jobs, --distinct and --trials must be >= 1");
    }
  } catch (const std::exception& e) {
    std::cerr << "megflood_load: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  Tally tally;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(options.connections);
    std::size_t assigned = 0;
    for (std::size_t t = 0; t < options.connections; ++t) {
      const std::size_t remaining_threads = options.connections - t;
      const std::size_t count =
          (options.jobs - assigned + remaining_threads - 1) /
          remaining_threads;
      threads.emplace_back(run_connection, t, assigned, count,
                           std::cref(options), std::ref(tally));
      assigned += count;
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
  const double hit_ratio =
      tally.subjobs == 0 ? 0.0
                         : static_cast<double>(tally.cached_subjobs) /
                               static_cast<double>(tally.subjobs);

  std::cout << "megflood_load: jobs=" << options.jobs
            << " connections=" << options.connections
            << " distinct=" << options.distinct
            << (options.retry ? " retry=on" : "") << "\n";
  std::cout << "megflood_load: done=" << tally.done
            << " cancelled=" << tally.cancelled
            << " failed=" << tally.failed
            << " errors=" << tally.errors
            << " rejected=" << tally.rejected
            << " unresolved=" << tally.unresolved << "\n";
  std::cout << "megflood_load: timeouts=" << tally.timeouts
            << " disconnects=" << tally.disconnects
            << " reconnects=" << tally.reconnects
            << " resubmits=" << tally.resubmits
            << " rejected_retries=" << tally.rejected_retries << "\n";
  std::cout << "megflood_load: wall_s=" << wall_s << " throughput_jobs_s="
            << (wall_s > 0.0 ? static_cast<double>(tally.done) / wall_s : 0.0)
            << "\n";
  std::cout << "megflood_load: latency_ms p50=" << quantile(tally.latencies_ms, 0.50)
            << " p90=" << quantile(tally.latencies_ms, 0.90)
            << " p99=" << quantile(tally.latencies_ms, 0.99)
            << " max=" << (tally.latencies_ms.empty() ? 0.0
                                                      : tally.latencies_ms.back())
            << "\n";
  std::cout << "megflood_load: cache subjobs=" << tally.subjobs
            << " cached=" << tally.cached_subjobs
            << " hit_ratio=" << hit_ratio << "\n";
  std::cout << "megflood_load: identity keys=" << tally.first_bytes.size()
            << " mismatches=" << tally.identity_mismatches << "\n";
  for (const std::string& sample : tally.sample_errors) {
    std::cerr << "megflood_load: sample error: " << sample << "\n";
  }
  // Failed (quarantine) samples go to stdout: CI greps them for the
  // reason/signal fields, and they are an outcome, not a harness error.
  for (const std::string& sample : tally.sample_failed) {
    std::cout << "megflood_load: sample failed: " << sample << "\n";
  }

  if (options.print_stats) {
    // One fresh connection after the run: the daemon's stats event shows
    // worker restarts / quarantines the chaos CI lane asserts on.
    try {
      LineClient client =
          options.use_tcp ? LineClient::connect_tcp(options.port)
                          : LineClient::connect_unix(options.socket_path);
      if (client.send_line("{\"op\":\"stats\"}")) {
        RecvStatus status = RecvStatus::kClosed;
        const auto line = client.recv_line(options.timeout_ms, &status);
        if (line) std::cout << "megflood_load: stats " << *line << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "megflood_load: stats request failed: " << e.what()
                << "\n";
    }
  }

  if (!options.dump_results.empty()) {
    // std::map iterates in key order, so the dump is deterministic and
    // two runs over the same campaign pool diff cleanly (CI byte-identity
    // across a daemon kill/restart uses exactly this).
    std::ofstream dump(options.dump_results, std::ios::trunc);
    if (!dump) {
      std::cerr << "megflood_load: cannot write " << options.dump_results
                << "\n";
      return 1;
    }
    for (const auto& [key, bytes] : tally.first_bytes) {
      dump << key << '\t' << bytes << '\n';
    }
  }

  if (tally.errors > 0 || tally.unresolved > 0 || tally.rejected > 0 ||
      tally.identity_mismatches > 0) {
    return 1;
  }
  if (options.min_hit_ratio >= 0.0 && hit_ratio < options.min_hit_ratio) {
    std::cerr << "megflood_load: hit ratio " << hit_ratio << " below required "
              << options.min_hit_ratio << "\n";
    return 1;
  }
  return 0;
}
