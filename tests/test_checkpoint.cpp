// Tests for the durable trial journal (core/checkpoint.hpp): bit-exact
// outcome round-trips (doubles stored as raw bit patterns), campaign
// header binding, torn-tail healing, and measure()-level resume producing
// bit-identical measurements at both thread counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "core/process.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

CheckpointKey small_key() {
  CheckpointKey key;
  key.campaign.scenario_cli = "--model=edge_meg --n=64 --trials=8 --seed=42";
  key.campaign.seed = 42;
  key.campaign.trials = 8;
  key.threads = 1;
  return key;
}

void expect_bitwise_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  EXPECT_EQ(ba, bb);
}

TEST(CheckpointJournal, RoundTripsExoticOutcomesBitForBit) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  TrialOutcome exotic;
  exotic.completed = true;
  exotic.rounds = 0x1.fffffffffffffp+1023;  // largest finite double
  exotic.spreading = -0.0;                  // sign bit must survive
  exotic.saturation = std::numeric_limits<double>::denorm_min();
  exotic.metrics["transmissions"] = 1e-300;
  exotic.metrics["weird stat"] = 3.0000000000000004;
  TrialOutcome incomplete;  // completed=false, everything zero
  {
    CheckpointJournal journal(path, small_key());
    EXPECT_EQ(journal.replayed_trials(), 0u);
    journal.record(3, exotic);
    journal.record(5, incomplete);
  }
  CheckpointJournal reopened(path, small_key());
  EXPECT_EQ(reopened.replayed_trials(), 2u);
  ASSERT_NE(reopened.find(3), nullptr);
  ASSERT_NE(reopened.find(5), nullptr);
  EXPECT_EQ(reopened.find(0), nullptr);
  const TrialOutcome& got = *reopened.find(3);
  EXPECT_TRUE(got.completed);
  expect_bitwise_equal(got.rounds, exotic.rounds);
  expect_bitwise_equal(got.spreading, exotic.spreading);
  expect_bitwise_equal(got.saturation, exotic.saturation);
  ASSERT_EQ(got.metrics.size(), 2u);
  expect_bitwise_equal(got.metrics.at("transmissions"), 1e-300);
  expect_bitwise_equal(got.metrics.at("weird stat"), 3.0000000000000004);
  EXPECT_FALSE(reopened.find(5)->completed);
}

TEST(CheckpointJournal, HeaderBindsTheCampaignIdentity) {
  const std::string path = temp_path("ckpt_header.bin");
  { CheckpointJournal journal(path, small_key()); }
  // Same key reopens fine.
  { CheckpointJournal journal(path, small_key()); }
  CheckpointKey other = small_key();
  other.campaign.seed = 43;
  EXPECT_THROW(CheckpointJournal(path, other), std::invalid_argument);
  other = small_key();
  other.campaign.trials = 16;
  EXPECT_THROW(CheckpointJournal(path, other), std::invalid_argument);
  other = small_key();
  other.threads = 4;
  EXPECT_THROW(CheckpointJournal(path, other), std::invalid_argument);
  other = small_key();
  other.campaign.scenario_cli += " --rotate_sources=0";
  EXPECT_THROW(CheckpointJournal(path, other), std::invalid_argument);
}

TEST(CheckpointJournal, TornTailIsHealedAndAppendsResume) {
  const std::string path = temp_path("ckpt_torn.bin");
  TrialOutcome outcome;
  outcome.completed = true;
  outcome.rounds = 12.0;
  {
    CheckpointJournal journal(path, small_key());
    journal.record(0, outcome);
    journal.record(1, outcome);
    journal.record(2, outcome);
  }
  // Simulate a SIGKILL mid-write: a partial frame at the tail.
  std::FILE* file = std::fopen(path.c_str(), "ab");
  ASSERT_NE(file, nullptr);
  const char torn[] = {1, 0, 0, 0, 7, 7};
  ASSERT_EQ(std::fwrite(torn, 1, sizeof torn, file), sizeof torn);
  std::fclose(file);
  {
    CheckpointJournal journal(path, small_key());
    EXPECT_EQ(journal.replayed_trials(), 3u);  // tail dropped, prefix kept
    journal.record(3, outcome);
  }
  CheckpointJournal journal(path, small_key());
  EXPECT_EQ(journal.replayed_trials(), 4u);
}

// Open file descriptors of this process, or -1 where /proc has no list.
long open_fd_count() {
  std::error_code error;
  std::filesystem::directory_iterator fds("/proc/self/fd", error);
  if (error) return -1;
  return static_cast<long>(std::distance(fds, {}));
}

TEST(CheckpointJournal, FailedReadClosesTheFile) {
  // A directory opens for reading but fails the first read, so each
  // constructor throws from its read of the existing journal; the handle
  // it opened must be closed on that path too.
  const std::string dir = testing::TempDir() + "ckpt_dir_journal";
  std::filesystem::create_directories(dir);
  const long before = open_fd_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/fd";
  for (int attempt = 0; attempt < 50; ++attempt) {
    EXPECT_THROW(CheckpointJournal(dir, small_key()), std::runtime_error);
  }
  EXPECT_EQ(open_fd_count(), before);
  std::filesystem::remove(dir);
}

TEST(CheckpointJournal, ErrorRecordsReplayAsInformationalOnly) {
  const std::string path = temp_path("ckpt_errors.bin");
  {
    CheckpointJournal journal(path, small_key());
    TrialError error{2, 111, 222, "injected fault: throw at trial 2"};
    journal.record_error(error);
  }
  CheckpointJournal journal(path, small_key());
  EXPECT_EQ(journal.replayed_trials(), 0u);
  EXPECT_EQ(journal.find(2), nullptr);  // errored trials are retried
  ASSERT_EQ(journal.replayed_errors().size(), 1u);
  EXPECT_EQ(journal.replayed_errors()[0].trial, 2u);
  EXPECT_EQ(journal.replayed_errors()[0].graph_seed, 111u);
  EXPECT_EQ(journal.replayed_errors()[0].process_seed, 222u);
  EXPECT_EQ(journal.replayed_errors()[0].what,
            "injected fault: throw at trial 2");
}

// ---------------------------------------------------------------------------
// measure()-level resume equivalence
// ---------------------------------------------------------------------------

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.incomplete, b.incomplete);
  const auto same = [](const Summary& x, const Summary& y) {
    EXPECT_EQ(x.count, y.count);
    EXPECT_DOUBLE_EQ(x.mean, y.mean);
    EXPECT_DOUBLE_EQ(x.stddev, y.stddev);
    EXPECT_DOUBLE_EQ(x.min, y.min);
    EXPECT_DOUBLE_EQ(x.median, y.median);
    EXPECT_DOUBLE_EQ(x.p90, y.p90);
    EXPECT_DOUBLE_EQ(x.p99, y.p99);
    EXPECT_DOUBLE_EQ(x.max, y.max);
  };
  same(a.rounds, b.rounds);
  same(a.spreading_rounds, b.spreading_rounds);
  same(a.saturation_rounds, b.saturation_rounds);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, summary] : a.metrics) {
    ASSERT_TRUE(b.metrics.count(name)) << name;
    same(summary, b.metrics.at(name));
  }
}

GraphFactory meg_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<TwoStateEdgeMEG>(40, TwoStateParams{0.08, 0.25},
                                             seed);
  };
}

ProcessFactory flooding_factory() {
  return [] { return std::make_unique<FloodingProcess>(); };
}

void run_interrupt_resume(std::size_t threads) {
  TrialConfig cfg;
  cfg.trials = 10;
  cfg.seed = 7;
  cfg.threads = threads;
  const Measurement baseline = measure(meg_factory(), flooding_factory(), cfg);

  const std::string path =
      temp_path("ckpt_resume_t" + std::to_string(threads) + ".bin");
  CheckpointKey key{{"meg 40 trials=10", cfg.seed, cfg.trials}, threads};
  std::atomic<bool> cancel{false};
  std::atomic<std::size_t> recorded{0};
  {
    // First run: cancel after 4 durable records — an interruption that
    // leaves a partial journal behind.
    CheckpointJournal journal(path, key);
    MeasureHooks hooks;
    hooks.checkpoint = &journal;
    hooks.cancel = &cancel;
    hooks.on_trial_recorded = [&](std::size_t) {
      if (recorded.fetch_add(1) + 1 >= 4) cancel.store(true);
    };
    const Measurement partial =
        measure(meg_factory(), flooding_factory(), cfg, hooks);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_GT(partial.not_run, 0u);
  }
  // Second run: resume from the journal, uninterrupted.
  CheckpointJournal journal(path, key);
  EXPECT_GE(journal.replayed_trials(), 4u);
  MeasureHooks hooks;
  hooks.checkpoint = &journal;
  const Measurement resumed =
      measure(meg_factory(), flooding_factory(), cfg, hooks);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed, journal.replayed_trials());
  expect_identical(baseline, resumed);
}

TEST(CheckpointResume, InterruptedThenResumedIsBitIdenticalSequential) {
  run_interrupt_resume(1);
}

TEST(CheckpointResume, InterruptedThenResumedIsBitIdenticalThreaded) {
  run_interrupt_resume(4);
}

TEST(CheckpointResume, FinishedJournalReplaysWithoutRerunning) {
  TrialConfig cfg;
  cfg.trials = 6;
  cfg.seed = 3;
  const std::string path = temp_path("ckpt_finished.bin");
  CheckpointKey key{{"meg finished", cfg.seed, cfg.trials}, 1};
  Measurement first;
  {
    CheckpointJournal journal(path, key);
    MeasureHooks hooks;
    hooks.checkpoint = &journal;
    first = measure(meg_factory(), flooding_factory(), cfg, hooks);
  }
  CheckpointJournal journal(path, key);
  EXPECT_EQ(journal.replayed_trials(), cfg.trials);
  MeasureHooks hooks;
  hooks.checkpoint = &journal;
  bool any_started = false;
  hooks.on_trial_start = [&](std::size_t) { any_started = true; };
  const Measurement replayed =
      measure(meg_factory(), flooding_factory(), cfg, hooks);
  EXPECT_FALSE(any_started);  // everything came from the journal
  EXPECT_EQ(replayed.resumed, cfg.trials);
  expect_identical(first, replayed);
}

}  // namespace
}  // namespace megflood
