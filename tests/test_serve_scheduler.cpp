// The fair scheduler (serve/scheduler.hpp) in manual mode (workers == 0,
// run_one() on the test thread, supervising a worker subprocess of the
// megflood_serve binary): deterministic round-robin ordering across
// clients, per-job event ordering, submit-time and run-time cache hits,
// validation rejections, and cancellation.
//
// Note the declaration order inside each test: event vectors before the
// Scheduler, because the scheduler's destructor drains and may still
// emit into them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"

#ifndef MEGFLOOD_SERVE_PATH
#error "MEGFLOOD_SERVE_PATH must point at the megflood_serve binary"
#endif

namespace megflood::serve {
namespace {

Request submit_request(const std::string& id,
                       std::vector<std::string> args,
                       std::string sweep = "") {
  Request request;
  request.op = RequestOp::kSubmit;
  request.id = id;
  request.args = std::move(args);
  request.sweep = std::move(sweep);
  return request;
}

std::vector<std::string> quick_args(std::uint64_t seed) {
  return {"--model=fixed", "--n=16", "--trials=2",
          "--seed=" + std::to_string(seed)};
}

// For sweep submissions: n stays unfixed so it can be the swept key.
std::vector<std::string> sweep_args(std::uint64_t seed) {
  return {"--model=fixed", "--trials=2", "--seed=" + std::to_string(seed)};
}

// "<event>:<id>" labels, e.g. "done:j1" — enough to assert ordering.
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

SchedulerConfig manual_config() {
  SchedulerConfig config;
  config.workers = 0;  // run_one() on the test thread
  config.worker_binary = MEGFLOOD_SERVE_PATH;
  return config;
}

TEST(ServeScheduler, AWorkerBinaryIsRequired) {
  ResultCache cache;
  EXPECT_THROW(Scheduler(SchedulerConfig{}, &cache), std::invalid_argument);
}

TEST(ServeScheduler, PerJobEventOrderIsTotal) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("j1", quick_args(1)));
  while (scheduler.run_one()) {
  }

  ASSERT_EQ(events.size(), 5u) << events.size();
  EXPECT_EQ(label(events[0]), "queued:j1");
  EXPECT_EQ(label(events[1]), "running:j1");
  EXPECT_EQ(label(events[2]), "trial_done:j1");
  EXPECT_EQ(label(events[3]), "trial_done:j1");
  EXPECT_EQ(label(events[4]), "done:j1");
  EXPECT_EQ(number_field(events[4], "completed"), 2.0);
  EXPECT_EQ(number_field(events[4], "cache_hits"), 0.0);
}

TEST(ServeScheduler, RoundRobinInterleavesClients) {
  ResultCache cache;
  std::vector<std::string> log;  // "<client>:<event>:<id>"
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t a = scheduler.register_client(
      [&log](const std::string& line) { log.push_back("A:" + label(line)); });
  const std::uint64_t b = scheduler.register_client(
      [&log](const std::string& line) { log.push_back("B:" + label(line)); });

  // A floods the queue with a 3-point sweep; B submits one small job
  // afterwards.  Fairness: B's job must run after exactly one of A's
  // sub-jobs, not after all three.
  scheduler.submit(a, submit_request("big", sweep_args(1), "n=16:48:16"));
  scheduler.submit(b, submit_request("small", quick_args(2)));

  while (scheduler.run_one()) {
  }

  std::vector<std::string> milestones;
  for (const std::string& entry : log) {
    if (entry.find(":done:") != std::string::npos ||
        entry.find(":running:") != std::string::npos) {
      milestones.push_back(entry);
    }
  }
  ASSERT_EQ(milestones.size(), 4u);
  EXPECT_EQ(milestones[0], "A:running:big");    // A's first sub-job starts
  EXPECT_EQ(milestones[1], "B:running:small");  // then the cursor moves to B
  EXPECT_EQ(milestones[2], "B:done:small");     // B finishes before...
  EXPECT_EQ(milestones[3], "A:done:big");       // ...A's remaining sub-jobs
}

TEST(ServeScheduler, RepeatSubmissionIsAnsweredFromTheCache) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("first", quick_args(9)));
  while (scheduler.run_one()) {
  }
  const std::string fresh_done = events.back();
  ASSERT_EQ(label(fresh_done), "done:first");

  events.clear();
  scheduler.submit(client, submit_request("again", quick_args(9)));
  // No run_one(): a full cache hit resolves at submit time.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(label(events[0]), "queued:again");
  EXPECT_EQ(label(events[1]), "done:again");
  EXPECT_EQ(number_field(events[1], "cache_hits"), 1.0);

  // Byte-identity: the result object inside both done events is the same
  // byte string (only the surrounding id/cached fields differ).
  const std::string fresh_result =
      fresh_done.substr(fresh_done.find("\"result\": "));
  const std::string cached_result =
      events[1].substr(events[1].find("\"result\": "));
  EXPECT_EQ(fresh_result, cached_result);
}

TEST(ServeScheduler, ValidationFailuresAreStructuredErrors) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  const std::vector<Request> bad = {
      submit_request("e1", {"--model=no_such_model"}),
      submit_request("e2", {"--model=fixed", "--bogus=1"}),
      submit_request("e3", {"--model=fixed", "--trials=0"}),
      submit_request("e4", sweep_args(1), "alpha=2:1:1"),   // bad sweep
      submit_request("e6", quick_args(1), "n=16:32:16"),    // fixed + swept
  };
  for (const Request& request : bad) {
    events.clear();
    scheduler.submit(client, request);
    ASSERT_EQ(events.size(), 1u) << request.id;
    EXPECT_EQ(label(events[0]), "error:" + request.id) << events[0];
  }

  // A sweep over the sub-job cap is overload, not a malformed request:
  // it resolves as rejected/too_large (ISSUE 9), with no retry incentive.
  events.clear();
  scheduler.submit(client, submit_request("e5", sweep_args(1), "n=1:4097:1"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(label(events[0]), "rejected:e5") << events[0];
  EXPECT_NE(events[0].find("\"reason\": \"too_large\""), std::string::npos)
      << events[0];
  EXPECT_FALSE(scheduler.run_one());  // nothing was queued

  // A duplicate active id is rejected while the first is still queued.
  events.clear();
  scheduler.submit(client, submit_request("dup", quick_args(1)));
  scheduler.submit(client, submit_request("dup", quick_args(2)));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(label(events[0]), "queued:dup");
  EXPECT_EQ(label(events[1]), "error:dup");
}

TEST(ServeScheduler, CancelResolvesQueuedSubJobs) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("j", sweep_args(3), "n=16:64:16"));
  ASSERT_TRUE(scheduler.run_one());  // one of four sub-jobs runs
  scheduler.cancel(client, "j");
  EXPECT_EQ(label(events.back()), "cancelled:j");
  EXPECT_EQ(number_field(events.back(), "completed"), 2.0);  // one sub-job
  EXPECT_EQ(number_field(events.back(), "total"), 8.0);
  EXPECT_FALSE(scheduler.run_one());

  // Cancelling an unknown (or already finished) id is an error event.
  events.clear();
  scheduler.cancel(client, "j");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(label(events[0]), "error:j");
}

TEST(ServeScheduler, StatsCountTheWork) {
  ResultCache cache;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client =
      scheduler.register_client([](const std::string&) {});
  scheduler.submit(client, submit_request("j", quick_args(4)));
  const StatsSnapshot before = scheduler.stats();
  EXPECT_EQ(before.clients, 1u);
  EXPECT_EQ(before.jobs_active, 1u);
  EXPECT_EQ(before.queued_subjobs, 1u);
  while (scheduler.run_one()) {
  }
  const StatsSnapshot after = scheduler.stats();
  EXPECT_EQ(after.jobs_active, 0u);
  EXPECT_EQ(after.jobs_done, 1u);
  EXPECT_EQ(after.subjobs_run, 1u);
  EXPECT_EQ(after.trials_done, 2u);
  EXPECT_EQ(after.cache_entries, 1u);
}

TEST(ServeScheduler, UnregisteredClientWorkIsDropped) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });
  scheduler.submit(client, submit_request("j", sweep_args(5), "n=16:48:16"));
  scheduler.unregister_client(client);
  // The queue died with the client: nothing left to run, no events after
  // the disconnect, and submits from a dead client id are ignored.
  const std::size_t events_at_disconnect = events.size();
  EXPECT_FALSE(scheduler.run_one());
  scheduler.submit(client, submit_request("late", quick_args(6)));
  EXPECT_EQ(events.size(), events_at_disconnect);
  EXPECT_EQ(scheduler.stats().clients, 0u);
}

// ---------------------------------------------------------------------------
// Overload protection, deadlines and crash recovery (ISSUE 9)
// ---------------------------------------------------------------------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string hex_name(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(ServeScheduler, GlobalQueueCapRejectsWithRetryHint) {
  ResultCache cache;
  std::vector<std::string> events;
  SchedulerConfig config = manual_config();
  config.max_queue = 2;
  Scheduler scheduler(config, &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("a", sweep_args(31), "n=16:32:16"));
  EXPECT_EQ(label(events.back()), "queued:a");  // 2 sub-jobs fill the queue
  scheduler.submit(client, submit_request("b", quick_args(32)));
  EXPECT_EQ(label(events.back()), "rejected:b") << events.back();
  EXPECT_NE(events.back().find("\"reason\": \"queue_full\""),
            std::string::npos);
  const double hint = number_field(events.back(), "retry_after_ms");
  EXPECT_GE(hint, 50.0);
  EXPECT_LE(hint, 5000.0);

  const StatsSnapshot saturated = scheduler.stats();
  EXPECT_EQ(saturated.jobs_rejected, 1u);
  EXPECT_EQ(saturated.queued_subjobs, 2u);
  EXPECT_EQ(saturated.max_queue, 2u);

  // Draining the queue makes room: the retry is accepted and completes.
  while (scheduler.run_one()) {
  }
  scheduler.submit(client, submit_request("b", quick_args(32)));
  EXPECT_EQ(label(events.back()), "queued:b");
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(events.back()), "done:b");
}

TEST(ServeScheduler, PerClientQueueCapLeavesOtherClientsAdmissible) {
  ResultCache cache;
  std::vector<std::string> greedy_events;
  std::vector<std::string> modest_events;
  SchedulerConfig config = manual_config();
  config.max_client_queue = 2;
  Scheduler scheduler(config, &cache);
  const std::uint64_t greedy = scheduler.register_client(
      [&greedy_events](const std::string& line) {
        greedy_events.push_back(line);
      });
  const std::uint64_t modest = scheduler.register_client(
      [&modest_events](const std::string& line) {
        modest_events.push_back(line);
      });

  scheduler.submit(greedy, submit_request("g1", sweep_args(33), "n=16:32:16"));
  EXPECT_EQ(label(greedy_events.back()), "queued:g1");
  scheduler.submit(greedy, submit_request("g2", quick_args(34)));
  EXPECT_EQ(label(greedy_events.back()), "rejected:g2");
  // The cap is per client: the quiet client is not collateral damage.
  scheduler.submit(modest, submit_request("m1", quick_args(35)));
  EXPECT_EQ(label(modest_events.back()), "queued:m1");
}

TEST(ServeScheduler, DisconnectMidJobFreesQueueRowsAndAdmissionBudget) {
  ResultCache cache;
  std::vector<std::string> events;
  std::vector<std::string> other_events;
  SchedulerConfig config = manual_config();
  config.max_queue = 2;
  config.max_client_queue = 2;
  Scheduler scheduler(config, &cache);
  const std::uint64_t doomed = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  // Two sub-jobs: run one, disconnect with the other still queued.
  scheduler.submit(doomed, submit_request("d", sweep_args(70), "n=16:32:16"));
  EXPECT_EQ(label(events.back()), "queued:d");
  ASSERT_TRUE(scheduler.run_one());
  const StatsSnapshot mid = scheduler.stats();
  ASSERT_EQ(mid.per_client.size(), 1u);
  EXPECT_EQ(mid.per_client[0].client, doomed);
  EXPECT_EQ(mid.per_client[0].queued_subjobs, 1u);

  scheduler.unregister_client(doomed);

  // The reaped connection must leave no stale per-client row and must
  // return its queue slots to the admission budget.
  const StatsSnapshot after = scheduler.stats();
  EXPECT_EQ(after.clients, 0u);
  EXPECT_TRUE(after.per_client.empty());
  EXPECT_EQ(after.queued_subjobs, 0u);
  EXPECT_EQ(after.running_subjobs, 0u);

  const std::uint64_t next = scheduler.register_client(
      [&other_events](const std::string& line) {
        other_events.push_back(line);
      });
  // Two fresh sub-jobs fill the whole global cap — impossible if the
  // dead client's queued work had leaked into the global counter.
  scheduler.submit(next, submit_request("n", sweep_args(71), "n=16:32:16"));
  EXPECT_EQ(label(other_events.back()), "queued:n");
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(other_events.back()), "done:n");
}

TEST(ServeScheduler, CacheHitsAreAdmittedThroughAFullQueue) {
  ResultCache cache;
  std::vector<std::string> events;
  SchedulerConfig config = manual_config();
  config.max_queue = 1;
  Scheduler scheduler(config, &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  scheduler.submit(client, submit_request("warm", quick_args(36)));
  while (scheduler.run_one()) {
  }
  scheduler.submit(client, submit_request("fill", quick_args(37)));
  EXPECT_EQ(label(events.back()), "queued:fill");  // the queue is now full

  // A fully cached submission queues nothing — rejecting it would make
  // overload refuse the one kind of work that is free to answer.
  events.clear();
  scheduler.submit(client, submit_request("hit", quick_args(36)));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(label(events[0]), "queued:hit");
  EXPECT_EQ(number_field(events[0], "cache_hits"), 1.0);
  EXPECT_EQ(label(events[1]), "done:hit");
}

TEST(ServeScheduler, DeadlineExceededResolvesTheJobAndIsNeverCached) {
  ResultCache cache;
  std::vector<std::string> events;
  Scheduler scheduler(manual_config(), &cache);
  const std::uint64_t client = scheduler.register_client(
      [&events](const std::string& line) { events.push_back(line); });

  Request doomed = submit_request("slow", quick_args(38));
  doomed.deadline_s = 1e-9;  // the cooperative watchdog trips on trial 1
  scheduler.submit(client, doomed);
  while (scheduler.run_one()) {
  }
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(label(events[events.size() - 2]), "deadline_exceeded:slow");
  EXPECT_EQ(label(events.back()), "done:slow");
  EXPECT_NE(events.back().find("\"deadline_exceeded\": true"),
            std::string::npos)
      << events.back();
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1u);
  EXPECT_EQ(scheduler.stats().jobs_failed, 1u);

  // The deadline is execution policy, not identity: nothing was cached,
  // and the same campaign without a deadline runs fresh and completes.
  events.clear();
  scheduler.submit(client, submit_request("retry", quick_args(38)));
  EXPECT_EQ(number_field(events.back(), "cache_hits"), 0.0);
  while (scheduler.run_one()) {
  }
  EXPECT_EQ(label(events.back()), "done:retry");
  EXPECT_NE(events.back().find("\"result\": {"), std::string::npos);
}

TEST(ServeScheduler, RecoversAnInterruptedJournalByteIdentically) {
  const std::string dir = fresh_dir("serve_sched_recover");
  ScenarioSpec spec = parse_scenario_args(
      {"--model=fixed", "--n=16", "--trials=3", "--seed=21"});
  spec.trial.threads = 1;
  const CampaignKey key = campaign_key(spec);
  const std::string journal_file =
      dir + "/" + hex_name(campaign_key_hash(key)) + ".mfj";

  // Baseline: the bytes an uninterrupted run would have cached.
  const ScenarioResult clean = run_scenario(spec);
  const std::string baseline = result_json_object(spec, clean, clean.warnings);

  {  // "Crash" after one durable trial: a journal exists, the cache does
     // not — exactly the state a SIGKILLed daemon leaves behind.
    CheckpointJournal journal(journal_file, CheckpointKey{key, 1});
    std::atomic<bool> cancel{false};
    MeasureHooks hooks;
    hooks.cancel = &cancel;
    hooks.checkpoint = &journal;
    hooks.on_trial_recorded = [&cancel](std::size_t) {
      cancel.store(true, std::memory_order_relaxed);
    };
    const ScenarioResult partial = run_scenario(spec, hooks);
    EXPECT_TRUE(partial.measurement.interrupted);
  }

  ResultCache cache;
  SchedulerConfig config = manual_config();
  config.journal_dir = dir;
  Scheduler scheduler(config, &cache);
  EXPECT_EQ(scheduler.recover_journals(), 1u);
  const StatsSnapshot pending = scheduler.stats();
  EXPECT_EQ(pending.clients, 0u);  // the recovery owner is internal
  EXPECT_EQ(pending.jobs_active, 1u);
  EXPECT_EQ(pending.queued_subjobs, 1u);

  while (scheduler.run_one()) {
  }
  EXPECT_EQ(cache.lookup(key).value_or(""), baseline)
      << "resumed result differs from the uninterrupted run";
  EXPECT_FALSE(std::filesystem::exists(journal_file))
      << "a completed journal must be removed";
}

TEST(ServeScheduler, ForeignOrSpentJournalsAreRemovedNotResumed) {
  const std::string dir = fresh_dir("serve_sched_junk");
  ScenarioSpec spec = parse_scenario_args(
      {"--model=fixed", "--n=16", "--trials=2", "--seed=22"});
  spec.trial.threads = 1;
  const CampaignKey key = campaign_key(spec);

  // Not a journal at all.
  const std::string junk = dir + "/junk.mfj";
  {
    std::ofstream out(junk, std::ios::binary);
    out << "definitely not a checkpoint journal";
  }
  // A real journal, but its campaign is already answered by the cache.
  const std::string spent = dir + "/spent.mfj";
  { CheckpointJournal journal(spent, CheckpointKey{key, 1}); }
  // A real journal with a non-daemon thread count.
  const std::string threaded = dir + "/threaded.mfj";
  { CheckpointJournal journal(threaded, CheckpointKey{key, 4}); }

  ResultCache cache;
  cache.store(key, "{\"v\": 1}");
  SchedulerConfig config = manual_config();
  config.journal_dir = dir;
  Scheduler scheduler(config, &cache);
  EXPECT_EQ(scheduler.recover_journals(), 0u);
  EXPECT_FALSE(scheduler.run_one());
  EXPECT_FALSE(std::filesystem::exists(junk));
  EXPECT_FALSE(std::filesystem::exists(spent));
  EXPECT_FALSE(std::filesystem::exists(threaded));
}

}  // namespace
}  // namespace megflood::serve
