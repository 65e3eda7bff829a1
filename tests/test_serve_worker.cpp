// Process-isolation suite for megflood_serve (ISSUE 10): the worker wire
// protocol, byte-identity between --isolation=thread and
// --isolation=process, crash containment (a segfaulting campaign kills
// its worker, the supervisor respawns and the job still completes
// bit-identically via the journal), poison-job quarantine (a campaign
// that crashes `crash_limit` workers ends in a terminal `failed` event
// and a persistent .mfq marker — never an infinite crash loop), plus
// cancel/deadline propagation into workers, rlimit containment of a
// memory-bomb trial, and campaigns evicted from the cache's memory tier
// (recomputed without a disk tier, disk hits with one).
//
// The workers are real subprocesses: the scheduler self-execs the
// megflood_serve binary (path injected by CMake as MEGFLOOD_SERVE_PATH)
// with --worker.  Thread-mode schedulers in the same tests provide the
// ground-truth event streams for the byte-identity assertions.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/worker.hpp"
#include "util/fault_injection.hpp"

#ifndef MEGFLOOD_SERVE_PATH
#error "MEGFLOOD_SERVE_PATH must point at the megflood_serve binary"
#endif

// Sanitizer shadow mappings defeat RLIMIT_AS (the worker skips the
// budget, see serve/worker.cpp) and turn the injected SIGSEGV into a
// sanitizer report that exits instead of dying on the signal — so the
// rlimit test skips and the signal-name asserts loosen under sanitizers.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEGFLOOD_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEGFLOOD_TEST_SANITIZED 1
#endif
#endif

namespace megflood::serve {
namespace {

Request submit_request(const std::string& id, std::vector<std::string> args,
                       std::string sweep = "", double deadline_s = 0.0) {
  Request request;
  request.op = RequestOp::kSubmit;
  request.id = id;
  request.args = std::move(args);
  request.sweep = std::move(sweep);
  request.deadline_s = deadline_s;
  return request;
}

std::vector<std::string> quick_args(std::uint64_t seed,
                                    std::size_t trials = 2) {
  return {"--model=fixed", "--n=16", "--trials=" + std::to_string(trials),
          "--seed=" + std::to_string(seed)};
}

// "<event>:<id>" labels, e.g. "done:j1".
std::string label(const std::string& line) {
  std::string error;
  const auto event = parse_json(line, error);
  if (!event || !event->is_object()) return "unparseable";
  const JsonValue* kind = event->find("event");
  const JsonValue* id = event->find("id");
  std::string out = kind ? kind->string : "?";
  if (id && id->is_string()) out += ":" + id->string;
  return out;
}

double number_field(const std::string& line, const std::string& name) {
  std::string error;
  const auto event = parse_json(line, error);
  if (!event) return -1.0;
  const JsonValue* field = event->find(name);
  return field ? field->number : -1.0;
}

std::string string_field(const std::string& line, const std::string& name) {
  std::string error;
  const auto event = parse_json(line, error);
  if (!event) return "";
  const JsonValue* field = event->find(name);
  return field && field->is_string() ? field->string : "";
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::size_t count_files_with_suffix(const std::string& dir,
                                    const std::string& suffix) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ++count;
    }
  }
  return count;
}

SchedulerConfig process_config(std::string inject = "",
                               std::string journal_dir = "") {
  SchedulerConfig config;
  config.workers = 0;  // manual mode: run_one() supervises on this thread
  config.isolation = IsolationMode::kProcess;
  config.worker_binary = MEGFLOOD_SERVE_PATH;
  config.inject_spec = std::move(inject);
  config.journal_dir = std::move(journal_dir);
  return config;
}

// Thread-safe event sink for the tests that run a real worker pool.
// Declared before the Scheduler in every test (the scheduler destructor
// drains and may still emit).
struct EventLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> lines;

  void push(const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    }
    cv.notify_all();
  }

  bool wait_for_label(const std::string& want, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      for (const std::string& line : lines) {
        if (label(line) == want) return true;
      }
      return false;
    });
  }

  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

// Runs `requests` to completion on a manual-mode scheduler with `config`
// and returns the full event stream.
std::vector<std::string> run_to_completion(SchedulerConfig config,
                                           ResultCache* cache,
                                           const std::vector<Request>& requests) {
  std::vector<std::string> events;
  Scheduler scheduler(config, cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });
  for (const Request& request : requests) scheduler.submit(client, request);
  while (scheduler.run_one()) {
  }
  return events;
}

// ---------------------------------------------------------------------------
// Wire protocol units
// ---------------------------------------------------------------------------

TEST(ServeWorker, JobLineRoundTrips) {
  WorkerJob job;
  job.job = 42;
  job.cli = "--model=fixed --n=16 --trials=3 --seed=7";
  job.journal = "/tmp/cache/deadbeef.mfj";
  job.deadline_s = 1.5;
  job.memory_mb = 256;
  job.attempt = 2;

  WorkerJob back;
  std::string error;
  ASSERT_TRUE(parse_worker_job_line(worker_job_line(job), back, error))
      << error;
  EXPECT_EQ(back.job, 42u);
  EXPECT_EQ(back.cli, job.cli);
  EXPECT_EQ(back.journal, job.journal);
  EXPECT_DOUBLE_EQ(back.deadline_s, 1.5);
  EXPECT_EQ(back.memory_mb, 256u);
  EXPECT_EQ(back.attempt, 2u);
}

TEST(ServeWorker, JobLineDefaultsSurviveTheWire) {
  WorkerJob job;
  job.job = 1;
  job.cli = "--model=fixed --n=16 --trials=1 --seed=1";

  WorkerJob back;
  std::string error;
  ASSERT_TRUE(parse_worker_job_line(worker_job_line(job), back, error));
  EXPECT_TRUE(back.journal.empty());
  EXPECT_EQ(back.deadline_s, 0.0);
  EXPECT_EQ(back.memory_mb, 0u);
  EXPECT_EQ(back.attempt, 0u);
}

TEST(ServeWorker, MalformedJobLinesAreRejectedWithAReason) {
  WorkerJob out;
  std::string error;
  for (const char* bad : {
           "not json at all",
           "[1, 2, 3]",
           "{\"op\": \"cancel\", \"job\": 3}",
           "{\"job\": 3, \"cli\": \"--model=fixed\"}",
           "{\"op\": \"job\", \"cli\": \"--model=fixed\"}",
           "{\"op\": \"job\", \"job\": 3}",
           "{\"op\": \"job\", \"job\": 3, \"cli\": \"\"}",
       }) {
    error.clear();
    EXPECT_FALSE(parse_worker_job_line(bad, out, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// What the supervisor makes of a worker line: parsed once, then read as
// a result line (an unparseable line reads as a JSON null).
SubJobOutcome read_result_line(const std::string& line) {
  std::string error;
  const auto parsed = parse_json(line, error);
  return parse_worker_result_line(parsed ? *parsed : JsonValue{}, line);
}

// Every outcome survives the worker's result line, the result object
// byte-for-byte.
TEST(ServeWorker, ResultLineRoundTrips) {
  SubJobOutcome deadline;
  deadline.deadline_exceeded = true;
  deadline.error = "trial 3 exceeded its 0.2 s deadline";
  SubJobOutcome interrupted;
  interrupted.interrupted = true;
  SubJobOutcome tricky;
  tricky.error = "bad \"quote\" then , \"result\": {\"x\": 1}";
  SubJobOutcome success;
  success.result_json =
      "{\"model\": \"fixed\", \"n\": 16, \"rounds_mean\": 8.25, "
      "\"nested\": {\"a\": 1, \"result\": [1, 2]}, \"warnings\": []}";

  for (const SubJobOutcome& outcome :
       {deadline, interrupted, tricky, success}) {
    const std::string line = worker_result_line(7, outcome);
    EXPECT_EQ(label(line), "result");
    EXPECT_EQ(number_field(line, "job"), 7.0);
    const SubJobOutcome back = read_result_line(line);
    EXPECT_EQ(back.result_json, outcome.result_json) << line;
    EXPECT_EQ(back.error, outcome.error) << line;
    EXPECT_EQ(back.deadline_exceeded, outcome.deadline_exceeded) << line;
    EXPECT_EQ(back.interrupted, outcome.interrupted) << line;
  }

  // A line that carries no outcome at all is an error, never a success:
  // an empty outcome, garbage, a `result` member that is not an object,
  // and a success line cut short.
  const std::string whole = worker_result_line(7, success);
  for (const std::string& empty : {
           std::string("{\"event\": \"result\", \"job\": 7, "
                       "\"deadline\": false, \"interrupted\": false, "
                       "\"error\": \"\"}"),
           std::string("{\"event\": \"result\", \"job\": 7}"),
           std::string("not json at all"),
           std::string("\x01{\"event\": \"result\"}\xff"),
           std::string("{\"event\": \"result\", \"job\": 7, \"error\": \"\", "
                       "\"result\": [1, 2]}"),
           whole.substr(0, whole.size() - 1),
           whole.substr(0, whole.size() / 2),
       }) {
    const SubJobOutcome back = read_result_line(empty);
    EXPECT_EQ(back.error, "worker returned no result") << empty;
    EXPECT_TRUE(back.result_json.empty()) << empty;
    EXPECT_FALSE(back.interrupted) << empty;
  }
}

// ---------------------------------------------------------------------------
// The worker process itself, driven over its two channels
// ---------------------------------------------------------------------------

std::string fd_target(pid_t pid, int fd) {
  const std::string path =
      "/proc/" + std::to_string(pid) + "/fd/" + std::to_string(fd);
  char buffer[256];
  const ssize_t got = ::readlink(path.c_str(), buffer, sizeof(buffer) - 1);
  return got > 0 ? std::string(buffer, static_cast<std::size_t>(got)) : "";
}

// Feeds `jobs` one-trial sub-jobs back to back, each as soon as the
// previous result is in; returns the heartbeat lines seen meanwhile.
std::size_t run_quick_jobs(WorkerProcess& worker, std::size_t jobs) {
  std::size_t heartbeats = 0;
  for (std::size_t i = 1; i <= jobs; ++i) {
    WorkerJob job;
    job.job = i;
    job.cli = "--model=fixed --n=16 --trials=1 --seed=" + std::to_string(i);
    EXPECT_TRUE(worker.send_line(worker_job_line(job)));
    std::string line;
    while (true) {
      if (worker.read_line(30000, line) != WorkerProcess::ReadStatus::kLine) {
        ADD_FAILURE() << "worker went silent at job " << i;
        return heartbeats;
      }
      const std::string kind = label(line);
      if (kind == "heartbeat") ++heartbeats;
      if (kind == "result") break;
    }
    EXPECT_TRUE(read_result_line(line).error.empty()) << line;
  }
  return heartbeats;
}

// Job lines go in on the worker's stdin and its lines come back on its
// stdout, each on a channel of its own: on one shared socket, every line
// the daemon reads would also wake the worker's reader thread.
TEST(ServeWorker, WorkerStdinAndStdoutAreSeparateChannels) {
  WorkerProcess worker(MEGFLOOD_SERVE_PATH, "");
  std::string error;
  ASSERT_TRUE(worker.spawn(error)) << error;
  run_quick_jobs(worker, 1);  // the worker is past exec and serving
  const std::string in = fd_target(worker.pid(), 0);
  const std::string out = fd_target(worker.pid(), 1);
  EXPECT_EQ(in.rfind("socket:", 0), 0u) << in;
  EXPECT_EQ(out.rfind("socket:", 0), 0u) << out;
  EXPECT_NE(in, out);
  worker.shutdown();
}

// The heartbeat beats on its timer alone: a stream of quick jobs does
// not make it write a line per job.
TEST(ServeWorker, HeartbeatsFollowTheirTimerNotTheJobs) {
  WorkerProcess worker(MEGFLOOD_SERVE_PATH, "");
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(worker.spawn(error)) << error;
  const std::size_t heartbeats = run_quick_jobs(worker, 150);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LE(heartbeats, static_cast<std::size_t>(elapsed_ms / 500 + 1))
      << "over " << elapsed_ms << " ms";
  worker.shutdown();
}

// ---------------------------------------------------------------------------
// Byte-identity: process mode must answer exactly like thread mode
// ---------------------------------------------------------------------------

TEST(ServeWorker, ProcessModeEventStreamIsByteIdenticalToThreadMode) {
  const std::vector<Request> requests = {
      submit_request("sweep",
                     {"--model=fixed", "--trials=2", "--seed=91"},
                     "n=16:48:16"),
      submit_request("single", quick_args(92, 3)),
  };

  ResultCache thread_cache;
  SchedulerConfig thread_config;
  thread_config.workers = 0;
  const std::vector<std::string> thread_events =
      run_to_completion(thread_config, &thread_cache, requests);

  ResultCache process_cache;
  const std::vector<std::string> process_events =
      run_to_completion(process_config(), &process_cache, requests);

  // Full-stream equality: same events, same order, same bytes — the
  // worker's result object is spliced verbatim, never re-rendered.
  ASSERT_EQ(process_events.size(), thread_events.size());
  for (std::size_t i = 0; i < thread_events.size(); ++i) {
    EXPECT_EQ(process_events[i], thread_events[i]) << "event " << i;
  }

  // And the caches agree entry-for-entry.
  EXPECT_EQ(process_cache.stats().entries, thread_cache.stats().entries);
}

// A campaign resumed from a journal credits its replayed trials the same
// way in both modes: trial_done counts are cumulative, so the terminal
// done reports completed == total, not just the freshly run trials.
TEST(ServeWorker, ResumedSubJobReportsTheSameProgressInBothModes) {
  ScenarioSpec spec = parse_scenario_args(quick_args(101, 3));
  spec.trial.threads = 1;
  const CampaignKey key = campaign_key(spec);
  char name[17];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(campaign_key_hash(key)));

  // One durable trial at the daemon's hashed journal path, then a "crash".
  const auto plant_journal = [&](const std::string& dir) {
    CheckpointJournal journal(dir + "/" + name + ".mfj",
                              CheckpointKey{key, 1});
    std::atomic<bool> cancel{false};
    MeasureHooks hooks;
    hooks.cancel = &cancel;
    hooks.checkpoint = &journal;
    hooks.on_trial_recorded = [&cancel](std::size_t) {
      cancel.store(true, std::memory_order_relaxed);
    };
    ASSERT_TRUE(run_scenario(spec, hooks).measurement.interrupted);
  };
  const std::vector<Request> requests = {
      submit_request("r", quick_args(101, 3))};

  const std::string thread_dir = fresh_dir("worker_resume_thread");
  plant_journal(thread_dir);
  SchedulerConfig thread_config;
  thread_config.journal_dir = thread_dir;
  ResultCache thread_cache;
  const std::vector<std::string> thread_events =
      run_to_completion(thread_config, &thread_cache, requests);

  const std::string process_dir = fresh_dir("worker_resume_process");
  plant_journal(process_dir);
  ResultCache process_cache;
  const std::vector<std::string> process_events = run_to_completion(
      process_config("", process_dir), &process_cache, requests);

  EXPECT_EQ(process_events, thread_events);
  ASSERT_FALSE(thread_events.empty());
  EXPECT_EQ(label(thread_events.back()), "done:r");
  EXPECT_EQ(number_field(thread_events.back(), "completed"), 3.0);
  EXPECT_EQ(number_field(thread_events.back(), "total"), 3.0);
  EXPECT_EQ(count_files_with_suffix(thread_dir, ".mfj"), 0u);
  EXPECT_EQ(count_files_with_suffix(process_dir, ".mfj"), 0u);
}

// Pushes every entry stored so far out of the cache's memory tier: eight
// budget-eighths under keys no submission uses (the memory tier keeps
// seven).
void flush_memory_tier(ResultCache& cache) {
  const std::string filler(ResultCache::kMemoryBytes / 8, 'f');
  for (std::uint64_t i = 1; i <= 8; ++i) {
    CampaignKey key;
    key.scenario_cli = "--model=fixed --n=16 --filler=" + std::to_string(i);
    key.seed = i;
    key.trials = 1;
    cache.store(key, filler);
  }
}

// The result object of a done event (the last field, spliced verbatim).
std::string result_bytes(const std::string& done) {
  const std::size_t at = done.find("\"result\": ");
  return at == std::string::npos ? "" : done.substr(at);
}

TEST(ServeWorker, AnEvictedCampaignRecomputesToIdenticalBytes) {
  ResultCache cache;  // no disk tier
  const std::vector<Request> requests = {
      submit_request("e", quick_args(121, 3))};
  const std::vector<std::string> first =
      run_to_completion(process_config(), &cache, requests);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(label(first.back()), "done:e");
  EXPECT_NE(first.back().find("\"cached\": false"), std::string::npos);

  flush_memory_tier(cache);
  const CacheStats flushed = cache.stats();
  EXPECT_GE(flushed.evictions, 1u);

  // Recomputed in a worker, so the whole stream repeats byte for byte,
  // "cached": false included.
  const std::vector<std::string> again =
      run_to_completion(process_config(), &cache, requests);
  EXPECT_EQ(again, first);
  EXPECT_EQ(cache.stats().hits, flushed.hits);
}

TEST(ServeWorker, AnEvictedCampaignIsADiskHitWithACacheDir) {
  const std::string dir = fresh_dir("worker_evict_disk");
  ResultCache cache(dir);
  const std::vector<Request> requests = {
      submit_request("e", quick_args(122, 3))};
  const std::vector<std::string> first =
      run_to_completion(process_config("", dir), &cache, requests);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(label(first.back()), "done:e");

  flush_memory_tier(cache);
  EXPECT_GE(cache.stats().evictions, 1u);

  // Answered at submit time from the disk tier: queued, then done.
  const std::vector<std::string> again =
      run_to_completion(process_config("", dir), &cache, requests);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(label(again.back()), "done:e");
  EXPECT_EQ(number_field(again.back(), "cache_hits"), 1.0);
  EXPECT_NE(again.back().find("\"cached\": true"), std::string::npos);
  EXPECT_EQ(result_bytes(again.back()), result_bytes(first.back()));
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(ServeWorker, ProcessModeStatsReportWorkerRows) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(process_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("j", quick_args(93)));
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(events.back()), "done:j");

  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.isolation, "process");
  EXPECT_EQ(stats.worker_restarts, 0u);
  EXPECT_EQ(stats.jobs_quarantined, 0u);
  ASSERT_FALSE(stats.workers.empty());
  bool saw_live_worker = false;
  for (const WorkerSlotStats& slot : stats.workers) {
    if (slot.pid != 0 && slot.jobs > 0) saw_live_worker = true;
  }
  EXPECT_TRUE(saw_live_worker);
}

// A pool spawns its workers when its threads start, so the first jobs
// find them up; manual mode spawns nothing before its first run_one().
TEST(ServeWorker, PoolWorkersAreSpawnedBeforeAnyJob) {
  ResultCache cache;
  SchedulerConfig config = process_config();
  config.workers = 2;
  Scheduler scheduler(config, &cache);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<std::uint64_t> pids;
  while (true) {
    pids.clear();
    for (const WorkerSlotStats& slot : scheduler.stats().workers) {
      if (slot.pid != 0) pids.push_back(slot.pid);
    }
    if (pids.size() >= 2 || std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(pids.size(), 2u);
  for (const std::uint64_t pid : pids) {
    EXPECT_EQ(::kill(static_cast<pid_t>(pid), 0), 0) << "pid " << pid;
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.subjobs_run, 0u);
  EXPECT_EQ(stats.workers.back().pid, 0u);  // the manual run_one() slot
}

TEST(ServeWorker, ManualModeSpawnsNoWorkerBeforeRunOne) {
  ResultCache cache;
  Scheduler scheduler(process_config(), &cache);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const WorkerSlotStats& slot : scheduler.stats().workers) {
    EXPECT_EQ(slot.pid, 0u) << "slot " << slot.slot;
  }
}

// ---------------------------------------------------------------------------
// Crash containment: one crash is respawned, the job completes, and the
// journal makes the answer byte-identical to a run that never crashed.
// ---------------------------------------------------------------------------

TEST(ServeWorker, CrashedWorkerIsRespawnedAndTheJobCompletesIdentically) {
  const std::vector<Request> requests = {
      submit_request("j", quick_args(94, 4)),
  };

  ResultCache thread_cache;
  SchedulerConfig thread_config;
  thread_config.workers = 0;
  const std::vector<std::string> clean_events =
      run_to_completion(thread_config, &thread_cache, requests);

  // segv at trial 2, once=1: the first dispatch journals two trials and
  // dies; the retry (attempt 1) replays them and finishes clean.
  const std::string dir = fresh_dir("worker_respawn");
  ResultCache process_cache;
  std::vector<std::string> events;
  Scheduler scheduler(process_config("segv:trial=2,once=1", dir),
                      &process_cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });
  scheduler.submit(client, requests[0]);
  while (scheduler.run_one()) {
  }

  ASSERT_EQ(events.size(), clean_events.size());
  for (std::size_t i = 0; i < clean_events.size(); ++i) {
    EXPECT_EQ(events[i], clean_events[i]) << "event " << i;
  }
  EXPECT_EQ(label(events.back()), "done:j");
  EXPECT_EQ(number_field(events.back(), "completed"), 4.0);

  const StatsSnapshot stats = scheduler.stats();
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.jobs_quarantined, 0u);
  // The completed campaign retired its journal and was never quarantined.
  EXPECT_EQ(count_files_with_suffix(dir, ".mfj"), 0u);
  EXPECT_EQ(count_files_with_suffix(dir, ".mfq"), 0u);
}

// Two clients submit one campaign at once, so two workers run it
// concurrently and both die on the first attempt.  That is one crash of
// the campaign, not two: both retry and complete instead of the campaign
// being quarantined by racing itself.
TEST(ServeWorker, ConcurrentDispatchesOfOneCampaignAreChargedOneCrash) {
  EventLog log;
  ResultCache cache;
  SchedulerConfig config =
      process_config("slow:trial=0,ms=300+segv:trial=1,once=1");
  config.workers = 2;
  Scheduler scheduler(config, &cache);
  const std::uint64_t first = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });
  const std::uint64_t second = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });

  scheduler.submit(first, submit_request("a", quick_args(102, 3)));
  scheduler.submit(second, submit_request("b", quick_args(102, 3)));
  ASSERT_TRUE(log.wait_for_label("done:a", 30000));
  ASSERT_TRUE(log.wait_for_label("done:b", 30000));

  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.worker_restarts, 2u);
  EXPECT_EQ(stats.jobs_quarantined, 0u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

// ---------------------------------------------------------------------------
// Quarantine: a campaign that keeps killing workers is taken out of
// rotation — terminal `failed`, persistent marker, journal removed.
// ---------------------------------------------------------------------------

TEST(ServeWorker, PoisonJobIsQuarantinedAfterTheCrashLimit) {
  const std::string dir = fresh_dir("worker_quarantine");
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(process_config("segv:trial=1", dir), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  // No once=1: every dispatch of this campaign dies at trial 1.  Two
  // crashes (the default crash_limit) must end it — not loop forever.
  scheduler.submit(client, submit_request("poison", quick_args(95, 4)));
  while (scheduler.run_one()) {
  }

  ASSERT_FALSE(events.empty());
  const std::string terminal = events.back();
  EXPECT_EQ(label(terminal), "failed:poison");
  EXPECT_EQ(string_field(terminal, "reason"), "worker_crash");
  EXPECT_EQ(number_field(terminal, "crashes"), 2.0);
  const std::string signal = string_field(terminal, "signal");
#if !defined(MEGFLOOD_TEST_SANITIZED)
  EXPECT_EQ(signal, "SIGSEGV") << terminal;
#else
  // Sanitizers intercept the wild write and exit with a report instead;
  // the classification is still a worker death, just not signal-shaped.
  EXPECT_FALSE(signal.empty()) << terminal;
#endif

  StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.worker_restarts, 2u);
  EXPECT_EQ(stats.jobs_quarantined, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  // Marker persisted, poison journal removed (it must not be resumed).
  EXPECT_EQ(count_files_with_suffix(dir, ".mfq"), 1u);
  EXPECT_EQ(count_files_with_suffix(dir, ".mfj"), 0u);
  // And the poisoned campaign never reached the cache.
  EXPECT_EQ(cache.stats().entries, 0u);

  // Resubmitting the identical campaign short-circuits: immediate failed
  // event, no new worker crashes, no third SIGSEGV.
  scheduler.submit(client, submit_request("again", quick_args(95, 4)));
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(events.back()), "failed:again");
  EXPECT_EQ(string_field(events.back(), "reason"), "worker_crash");
  EXPECT_EQ(scheduler.stats().worker_restarts, 2u);

  // A different campaign still runs fine on the same scheduler — the
  // quarantine is per-campaign, not a poisoned daemon.
  scheduler.submit(client, submit_request("healthy", quick_args(96, 1)));
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(events.back()), "done:healthy");
}

TEST(ServeWorker, QuarantineSurvivesASchedulerRestart) {
  const std::string dir = fresh_dir("worker_quarantine_restart");
  const Request poison = submit_request("p", quick_args(97, 4));

  {
    ResultCache cache;
    std::vector<std::string> events;
    Scheduler scheduler(process_config("segv:trial=1", dir), &cache);
    const std::uint64_t client = scheduler.register_client(
        [&events](const std::string& line) { events.push_back(line); });
    scheduler.submit(client, poison);
    while (scheduler.run_one()) {
    }
    ASSERT_EQ(label(events.back()), "failed:p");
  }

  // A fresh scheduler over the same journal directory — no injection at
  // all this time — reloads the marker and refuses the campaign without
  // spawning a single worker for it.
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(process_config("", dir), &cache);
  EXPECT_EQ(scheduler.recover_journals(), 0u);  // poison journal is gone
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });
  scheduler.submit(client, poison);
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(events.back()), "failed:p");
  EXPECT_EQ(string_field(events.back(), "reason"), "worker_crash");
  EXPECT_EQ(scheduler.stats().worker_restarts, 0u);
  EXPECT_EQ(scheduler.stats().jobs_quarantined, 0u);  // counted last run
}

// ---------------------------------------------------------------------------
// Cancel and deadline reach into the worker
// ---------------------------------------------------------------------------

TEST(ServeWorker, CancelPropagatesIntoARunningWorker) {
  EventLog log;
  ResultCache cache;
  SchedulerConfig config = process_config("slow:trial=1,ms=4000");
  config.workers = 1;  // a real pool thread supervises the worker
  Scheduler scheduler(config, &cache);
  const std::uint64_t client = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });

  scheduler.submit(client, submit_request("c", quick_args(98, 8)));
  ASSERT_TRUE(log.wait_for_label("trial_done:c", 30000));
  scheduler.cancel(client, "c");
  ASSERT_TRUE(log.wait_for_label("cancelled:c", 30000));

  // The cancel interrupted the worker mid-campaign: well short of the 8
  // submitted trials (trial 1 alone sleeps 4 s).
  const std::vector<std::string> events = log.snapshot();
  const std::string terminal = events.back();
  EXPECT_EQ(label(terminal), "cancelled:c");
  EXPECT_LT(number_field(terminal, "completed"), 8.0);
  EXPECT_EQ(scheduler.stats().worker_restarts, 0u);  // cancel is not a crash
}

TEST(ServeWorker, DeadlineFiresInsideTheWorker) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(process_config("slow:trial=1,ms=4000"), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  // Trial 1 sleeps far past the per-trial budget: the worker's own
  // cooperative watchdog must end the campaign as a deadline miss — no
  // crash, no restart, a clean classified reply.
  scheduler.submit(client,
                   submit_request("d", quick_args(99, 8), "", 0.2));
  while (scheduler.run_one()) {
  }

  // Same shape as thread mode: a deadline_exceeded event for the missed
  // sub-job, then the terminal done whose reply carries the flag.
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(label(events[events.size() - 2]), "deadline_exceeded:d");
  EXPECT_EQ(label(events.back()), "done:d");
  EXPECT_NE(events.back().find("\"deadline_exceeded\": true"),
            std::string::npos);
  EXPECT_LT(number_field(events.back(), "completed"), 8.0);
  EXPECT_EQ(scheduler.stats().worker_restarts, 0u);
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1u);
}

// ---------------------------------------------------------------------------
// Memory containment: RLIMIT_AS turns a memory bomb into one worker
// death instead of a daemon OOM.
// ---------------------------------------------------------------------------

TEST(ServeWorker, MemoryBombIsContainedByTheWorkerBudget) {
#if defined(MEGFLOOD_TEST_SANITIZED)
  GTEST_SKIP() << "RLIMIT_AS is disabled under sanitizers";
#else
  const std::string dir = fresh_dir("worker_oom");
  ResultCache cache;
  std::vector<std::string> events;
  // A 2 GiB allocation at trial 1, once: the 256 MiB budget denies it,
  // the worker dies on the escaped bad_alloc, and the retry completes.
  SchedulerConfig config =
      process_config("oomtrial:trial=1,mb=2048,once=1", dir);
  config.worker_memory_mb = 256;
  Scheduler scheduler(config, &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("m", quick_args(100, 3)));
  while (scheduler.run_one()) {
  }

  EXPECT_EQ(label(events.back()), "done:m");
  EXPECT_EQ(number_field(events.back(), "completed"), 3.0);
  EXPECT_GE(scheduler.stats().worker_restarts, 1u);
  EXPECT_EQ(scheduler.stats().jobs_quarantined, 0u);
#endif
}

// ---------------------------------------------------------------------------
// Pipelined dispatch: a pool thread sends its worker the next sub-job
// during the running one's last trial
// ---------------------------------------------------------------------------

// The events of job `id`, in order.
std::vector<std::string> events_of(const std::vector<std::string>& lines,
                                   const std::string& id) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (string_field(line, "id") == id) out.push_back(line);
  }
  return out;
}

// Each job's own event sequence from a manual-mode thread scheduler,
// the reference every pipelined run must match job by job.
void expect_same_jobs_as_thread_mode(const std::vector<std::string>& got,
                                     const std::vector<Request>& requests) {
  ResultCache cache;
  SchedulerConfig config;
  config.workers = 0;
  const std::vector<std::string> want =
      run_to_completion(config, &cache, requests);
  for (const Request& request : requests) {
    const std::vector<std::string> mine = events_of(got, request.id);
    const std::vector<std::string> theirs = events_of(want, request.id);
    ASSERT_EQ(mine.size(), theirs.size()) << request.id;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i], theirs[i]) << request.id << " event " << i;
    }
  }
}

// One pool worker whose trial 0 sleeps 100 ms, so every job a test
// submits is queued before the first trial line comes back.
SchedulerConfig one_pool_worker(const std::string& inject,
                                std::string journal_dir = "") {
  const std::string first = "slow:trial=0,ms=100";
  SchedulerConfig config = process_config(
      inject.empty() ? first : first + "+" + inject, std::move(journal_dir));
  config.workers = 1;
  return config;
}

// The worker dies in the running sub-job's last trial with the next one
// already sent (the slow site holds the trial open long enough).  Only
// the running sub-job is charged; the sent one goes back to its queue
// and both complete as in thread mode.
TEST(ServeWorker, DeathWithASentSubJobChargesOnlyTheRunningOne) {
  const std::vector<Request> requests = {
      submit_request("a", quick_args(111, 2)),
      submit_request("b", quick_args(112, 1)),
  };
  EventLog log;
  ResultCache cache;
  Scheduler scheduler(
      one_pool_worker("slow:trial=1,ms=300+segv:trial=1,once=1",
                      fresh_dir("pipeline_death")),
      &cache);
  const std::uint64_t client = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });
  for (const Request& request : requests) scheduler.submit(client, request);
  ASSERT_TRUE(log.wait_for_label("done:a", 30000));
  ASSERT_TRUE(log.wait_for_label("done:b", 30000));

  expect_same_jobs_as_thread_mode(log.snapshot(), requests);
  EXPECT_EQ(scheduler.stats().worker_restarts, 1u);
  EXPECT_EQ(scheduler.stats().jobs_quarantined, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

// The same death, with a sent sub-job that has a last trial of its own:
// had the death been charged to it, its own first run would go out as
// attempt 1 and skip the once=1 crash.  It crashes once itself instead.
TEST(ServeWorker, ASentSubJobPutBackKeepsItsOwnCrashCount) {
  const std::vector<Request> requests = {
      submit_request("a", quick_args(113, 2)),
      submit_request("b", quick_args(114, 2)),
  };
  EventLog log;
  ResultCache cache;
  Scheduler scheduler(
      one_pool_worker("slow:trial=1,ms=300+segv:trial=1,once=1",
                      fresh_dir("pipeline_charge")),
      &cache);
  const std::uint64_t client = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });
  for (const Request& request : requests) scheduler.submit(client, request);
  ASSERT_TRUE(log.wait_for_label("done:a", 30000));
  ASSERT_TRUE(log.wait_for_label("done:b", 30000));

  expect_same_jobs_as_thread_mode(log.snapshot(), requests);
  EXPECT_EQ(scheduler.stats().worker_restarts, 2u);  // a once, b once
  EXPECT_EQ(scheduler.stats().jobs_quarantined, 0u);
}

// Cancelling a sub-job that was sent but has not started: one cancelled
// event, nothing cached, and the same worker takes the next sub-job.
TEST(ServeWorker, CancellingASentSubJobSkipsItInTheWorker) {
  EventLog log;
  ResultCache cache;
  const std::string dir = fresh_dir("pipeline_cancel");
  Scheduler scheduler(one_pool_worker("slow:trial=1,ms=1000", dir), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });
  scheduler.submit(client, submit_request("a", quick_args(115, 2)));
  scheduler.submit(client, submit_request("b", quick_args(116, 2)));
  ASSERT_TRUE(log.wait_for_label("running:b", 30000));
  // b went out during a's last trial, which sleeps 1 s: the cancel (sent
  // on the supervisor's next 250 ms poll) reaches b before it starts.
  scheduler.cancel(client, "b");
  ASSERT_TRUE(log.wait_for_label("cancelled:b", 30000));
  scheduler.submit(client, submit_request("c", quick_args(117, 1)));
  ASSERT_TRUE(log.wait_for_label("done:c", 30000));

  const std::vector<std::string> events = log.snapshot();
  const std::vector<std::string> b = events_of(events, "b");
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(label(b.back()), "cancelled:b");
  std::size_t terminal = 0;
  for (const std::string& line : b) {
    const std::string kind = label(line);
    if (kind != "queued:b" && kind != "running:b" &&
        kind != "trial_done:b") {
      ++terminal;
    }
  }
  EXPECT_EQ(terminal, 1u);
  EXPECT_EQ(number_field(b.back(), "completed"), 0.0);
  ASSERT_TRUE(log.wait_for_label("done:a", 30000));
  EXPECT_EQ(cache.stats().entries, 2u);  // a and c
  EXPECT_EQ(count_files_with_suffix(dir, ".mfj"), 0u);
  EXPECT_EQ(scheduler.stats().worker_restarts, 0u);
}

// Round-robin order is unchanged: the pick for the next sub-job only
// moves earlier.  Two clients, three sub-jobs each, all queued while the
// first runs its slow trial 0.
TEST(ServeWorker, PipelinedDispatchKeepsTheRoundRobinOrder) {
  const std::string inject = "slow:trial=0,ms=100";
  const std::vector<std::string> want = {"a1", "b1", "a2", "b2", "a3", "b3"};
  const auto dispatch_order = [&](SchedulerConfig config,
                                  std::vector<std::string>& all) {
    EventLog log;
    ResultCache cache;
    Scheduler scheduler(config, &cache);
    const std::uint64_t first = scheduler.register_client(
        [&log](const std::string& line) { log.push(line); });
    const std::uint64_t second = scheduler.register_client(
        [&log](const std::string& line) { log.push(line); });
    for (int i = 1; i <= 3; ++i) {
      scheduler.submit(first, submit_request("a" + std::to_string(i),
                                             quick_args(120 + i, 2)));
    }
    for (int i = 1; i <= 3; ++i) {
      scheduler.submit(second, submit_request("b" + std::to_string(i),
                                              quick_args(130 + i, 2)));
    }
    for (const std::string& id : want) {
      EXPECT_TRUE(log.wait_for_label("done:" + id, 30000)) << id;
    }
    all = log.snapshot();
    std::vector<std::string> order;
    for (const std::string& line : all) {
      const std::string kind = label(line);
      if (kind.rfind("running:", 0) == 0) order.push_back(kind.substr(8));
    }
    return order;
  };

  FaultPlan plan = FaultPlan::parse(inject, 1);
  SchedulerConfig thread_config;
  thread_config.workers = 1;
  thread_config.fault_plan = &plan;
  std::vector<std::string> thread_events;
  EXPECT_EQ(dispatch_order(thread_config, thread_events), want);

  std::vector<std::string> process_events;
  EXPECT_EQ(dispatch_order(one_pool_worker(""), process_events), want);
  for (const std::string& id : want) {
    EXPECT_EQ(events_of(process_events, id), events_of(thread_events, id))
        << id;
  }
}

// drain() waits for the sub-job sent behind the running one: the running
// one finishes its last trial, the sent one is cancelled before it
// starts, and neither leaves a journal.
TEST(ServeWorker, DrainWaitsForASentSubJobAndLeavesNoJournal) {
  EventLog log;
  ResultCache cache;
  const std::string dir = fresh_dir("pipeline_drain");
  Scheduler scheduler(one_pool_worker("slow:trial=1,ms=1000", dir), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&log](const std::string& line) { log.push(line); });
  scheduler.submit(client, submit_request("a", quick_args(140, 2)));
  scheduler.submit(client, submit_request("b", quick_args(141, 2)));
  ASSERT_TRUE(log.wait_for_label("running:b", 30000));
  // Let a's last trial start (it sleeps 1 s), so the drain cancels b
  // before it starts but no longer stops a.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  scheduler.drain();

  const std::vector<std::string> events = log.snapshot();
  const std::vector<std::string> a = events_of(events, "a");
  const std::vector<std::string> b = events_of(events, "b");
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(label(a.back()), "cancelled:a");
  EXPECT_EQ(number_field(a.back(), "completed"), 2.0);  // its last trial ran
  EXPECT_EQ(label(b.back()), "cancelled:b");
  EXPECT_EQ(number_field(b.back(), "completed"), 0.0);
  EXPECT_EQ(count_files_with_suffix(dir, ".mfj"), 0u);
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.running_subjobs, 0u);
  EXPECT_EQ(stats.worker_restarts, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);  // a
}

// ---------------------------------------------------------------------------
// The real binary rejects malformed --inject specs up front (exit 2)
// ---------------------------------------------------------------------------

TEST(ServeWorker, MalformedInjectSpecExitsWithConfigError) {
  const std::string binary = MEGFLOOD_SERVE_PATH;
  for (const char* spec : {"bogus:trial=1", "segv", "segv:trial=1,ms=5"}) {
    const std::string command = binary + " --inject=" + spec +
                                " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << spec;
    EXPECT_EQ(WEXITSTATUS(status), 2) << spec;

    const std::string worker_command = binary + " --worker --inject=" + spec +
                                       " >/dev/null 2>&1";
    const int worker_status = std::system(worker_command.c_str());
    ASSERT_TRUE(WIFEXITED(worker_status)) << spec;
    EXPECT_EQ(WEXITSTATUS(worker_status), 2) << spec;
  }
}

}  // namespace
}  // namespace megflood::serve
