// Thread-stress suite for the TSan lane (ISSUE 7): small-n / many-thread
// configurations of every threaded subsystem — the measure() trial
// runner, the flood_all_sources() barrier pool, and the checkpoint
// MeasureHooks paths — repeated enough times that ThreadSanitizer sees
// real interleavings of the claim loop, the record mutex, the barrier
// completion step, and the cancellation and error funnels.  Every stress
// also asserts the determinism contract (bit-identical output at any
// thread count), so a racing interleaving that corrupts a result fails
// the test even on builds without TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/flooding.hpp"
#include "core/process.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

constexpr std::size_t kStressThreads[] = {2, 4, 8};

GraphFactory small_edge_meg(std::size_t n) {
  return [n](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
    return std::make_unique<TwoStateEdgeMEG>(n, TwoStateParams{0.08, 0.3},
                                             seed);
  };
}

ProcessFactory flooding_factory() {
  return [] { return std::make_unique<FloodingProcess>(); };
}

void expect_equal_summary(const Summary& a, const Summary& b,
                          const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.p90, b.p90) << what;
  EXPECT_EQ(a.p99, b.p99) << what;
  EXPECT_EQ(a.max, b.max) << what;
}

void expect_equal_measurement(const Measurement& a, const Measurement& b,
                              const char* what) {
  expect_equal_summary(a.rounds, b.rounds, what);
  expect_equal_summary(a.spreading_rounds, b.spreading_rounds, what);
  expect_equal_summary(a.saturation_rounds, b.saturation_rounds, what);
  EXPECT_EQ(a.incomplete, b.incomplete) << what;
  ASSERT_EQ(a.metrics.size(), b.metrics.size()) << what;
  for (const auto& [name, summary] : a.metrics) {
    const auto it = b.metrics.find(name);
    ASSERT_NE(it, b.metrics.end()) << what << " metric " << name;
    expect_equal_summary(summary, it->second, name.c_str());
  }
}

// An in-memory CheckpointSink whose record path is deliberately hot: it
// copies the outcome map under its mutex on every record so TSan watches
// concurrent workers hammer one shared structure through the documented
// interface.
class RecordingSink final : public CheckpointSink {
 public:
  const TrialOutcome* find(std::size_t) const override { return nullptr; }
  void record(std::size_t trial, const TrialOutcome& outcome) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_[trial] = outcome;
  }
  void record_error(const TrialError& error) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    errors_.push_back(error);
  }
  std::size_t recorded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return done_.size();
  }
  std::size_t errors() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return errors_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::size_t, TrialOutcome> done_;
  std::vector<TrialError> errors_;
};

// --- measure(): claim loop + record mutex + hooks, threads in {2,4,8} ---

TEST(ThreadStress, MeasureBitIdenticalAcrossThreadCounts) {
  TrialConfig config;
  config.trials = 24;
  config.seed = 99;
  config.max_rounds = 4000;
  config.threads = 1;
  const Measurement serial =
      measure(small_edge_meg(48), flooding_factory(), config);
  ASSERT_GT(serial.rounds.count, 0u);
  for (const std::size_t threads : kStressThreads) {
    config.threads = threads;
    const Measurement threaded =
        measure(small_edge_meg(48), flooding_factory(), config);
    expect_equal_measurement(serial, threaded, "measure() thread count");
  }
}

TEST(ThreadStress, MeasureHooksHammeredFromAllWorkers) {
  for (const std::size_t threads : kStressThreads) {
    RecordingSink sink;
    std::atomic<std::size_t> started{0};
    std::atomic<std::size_t> recorded{0};
    MeasureHooks hooks;
    hooks.checkpoint = &sink;
    hooks.on_trial_start = [&](std::size_t) {
      started.fetch_add(1, std::memory_order_relaxed);
    };
    hooks.on_trial_recorded = [&](std::size_t) {
      recorded.fetch_add(1, std::memory_order_relaxed);
    };
    TrialConfig config;
    config.trials = 32;
    config.seed = 7;
    config.max_rounds = 4000;
    config.threads = threads;
    const Measurement m =
        measure(small_edge_meg(32), flooding_factory(), config, hooks);
    EXPECT_EQ(started.load(), config.trials);
    EXPECT_EQ(recorded.load(), config.trials);
    EXPECT_EQ(sink.recorded(), config.trials);
    EXPECT_EQ(m.errors.size(), 0u);
  }
}

TEST(ThreadStress, MeasureCancelRacedAgainstWorkers) {
  // The cancel flag flips concurrently with the claim loop; whatever the
  // interleaving, completed + not_run must account for every trial and
  // nothing may tear.  Several repeats vary the flip timing.
  for (int repeat = 0; repeat < 4; ++repeat) {
    std::atomic<bool> cancel{false};
    RecordingSink sink;
    MeasureHooks hooks;
    hooks.checkpoint = &sink;
    hooks.cancel = &cancel;
    std::atomic<std::size_t> seen{0};
    hooks.on_trial_start = [&](std::size_t) {
      if (seen.fetch_add(1, std::memory_order_relaxed) ==
          static_cast<std::size_t>(repeat)) {
        cancel.store(true, std::memory_order_relaxed);
      }
    };
    TrialConfig config;
    config.trials = 64;
    config.seed = 11;
    config.max_rounds = 4000;
    config.threads = 8;
    const Measurement m =
        measure(small_edge_meg(32), flooding_factory(), config, hooks);
    const std::size_t completed =
        m.rounds.count + m.incomplete + m.errors.size();
    EXPECT_EQ(completed + m.not_run, config.trials);
    EXPECT_TRUE(m.interrupted || m.not_run == 0);
    EXPECT_EQ(sink.recorded(), completed);
  }
}

TEST(ThreadStress, MeasureErrorContainmentUnderConcurrency) {
  // Poisoned trials throw inside concurrent workers; containment must
  // capture each one exactly once and the healthy trials must merge
  // bit-identically to a serial run with the same poison.
  const auto poisoned = [](const TrialConfig& config) {
    MeasureHooks hooks;
    hooks.on_trial_start = [](std::size_t trial) {
      if (trial % 5 == 3) throw std::runtime_error("poisoned trial");
    };
    return measure(small_edge_meg(32),
                   [] { return std::make_unique<FloodingProcess>(); }, config,
                   hooks);
  };
  TrialConfig config;
  config.trials = 25;
  config.seed = 3;
  config.max_rounds = 4000;
  config.contain_errors = true;
  config.threads = 1;
  const Measurement serial = poisoned(config);
  ASSERT_EQ(serial.errors.size(), 5u);
  for (const std::size_t threads : kStressThreads) {
    config.threads = threads;
    const Measurement threaded = poisoned(config);
    ASSERT_EQ(threaded.errors.size(), serial.errors.size());
    for (std::size_t i = 0; i < serial.errors.size(); ++i) {
      EXPECT_EQ(threaded.errors[i].trial, serial.errors[i].trial);
      EXPECT_EQ(threaded.errors[i].graph_seed, serial.errors[i].graph_seed);
      EXPECT_EQ(threaded.errors[i].what, serial.errors[i].what);
    }
    expect_equal_measurement(serial, threaded, "containment thread count");
  }
}

TEST(ThreadStress, MeasureUncontainedErrorFunnel) {
  // contain_errors = false: the first worker exception must propagate out
  // of measure() as a catchable exception while the other workers wind
  // down — TSan watches the failed flag, the error mutex and the joins.
  MeasureHooks hooks;
  hooks.on_trial_start = [](std::size_t trial) {
    if (trial == 7) throw std::runtime_error("uncontained");
  };
  TrialConfig config;
  config.trials = 32;
  config.seed = 5;
  config.max_rounds = 4000;
  config.contain_errors = false;
  config.threads = 8;
  EXPECT_THROW(
      measure(small_edge_meg(32), flooding_factory(), config, hooks),
      std::runtime_error);
}

// --- flood_all_sources(): barrier pool, threads beyond the word count ---

TEST(ThreadStress, AllSourcesBarrierPoolManyThreadsSmallN) {
  // n = 520 -> 9 words and n = 130 -> 3 words: below the pool's column
  // minimum, so an 8-thread request runs serially and must agree;
  // AllSourcesBarrierPoolAtTheColumnMinimum drives the pool itself.
  for (const std::size_t n : {130ULL, 520ULL}) {
    TwoStateEdgeMEG serial_graph(n, TwoStateParams{0.05, 0.4}, 21);
    const AllSourcesResult serial =
        flood_all_sources(serial_graph, 600, /*threads=*/1);
    for (const std::size_t threads : kStressThreads) {
      for (int repeat = 0; repeat < 3; ++repeat) {
        TwoStateEdgeMEG graph(n, TwoStateParams{0.05, 0.4}, 21);
        const AllSourcesResult threaded =
            flood_all_sources(graph, 600, threads);
        ASSERT_EQ(threaded.completed_count, serial.completed_count);
        ASSERT_EQ(threaded.max_rounds, serial.max_rounds);
        ASSERT_EQ(threaded.min_rounds, serial.min_rounds);
        ASSERT_EQ(threaded.per_source.size(), serial.per_source.size());
        for (std::size_t s = 0; s < serial.per_source.size(); ++s) {
          ASSERT_EQ(threaded.per_source[s].rounds,
                    serial.per_source[s].rounds)
              << "n=" << n << " threads=" << threads << " source " << s;
          ASSERT_EQ(threaded.per_source[s].informed_counts,
                    serial.per_source[s].informed_counts)
              << "n=" << n << " threads=" << threads << " source " << s;
        }
      }
    }
  }
}

// An edge-MEG whose second step() throws.
class ThrowingStepGraph final : public DynamicGraph {
 public:
  ThrowingStepGraph(std::size_t n, TwoStateParams params)
      : inner_(n, params, 9) {}
  std::size_t num_nodes() const override { return inner_.num_nodes(); }
  const Snapshot& snapshot() const override { return inner_.snapshot(); }
  void step() override {
    if (++steps_ == 2) throw std::runtime_error("step failed");
    inner_.step();
  }
  void reset(std::uint64_t seed) override { inner_.reset(seed); }

 private:
  TwoStateEdgeMEG inner_;
  int steps_ = 0;
};

TEST(ThreadStress, AllSourcesThrowingStepEndsCatchably) {
  // A graph whose step() throws mid-run: the barrier completion step must
  // funnel the exception to the caller without deadlocking the pool.  The
  // all-sources flood here takes 3 rounds, so the model steps twice, and
  // the second step falls between rounds 2 and 3.
  for (const std::size_t threads : kStressThreads) {
    ThrowingStepGraph graph(256, TwoStateParams{0.05, 0.4});
    EXPECT_THROW(flood_all_sources(graph, 600, threads),
                 std::runtime_error);
  }
}

TEST(ThreadStress, AllSourcesBarrierPoolAtTheColumnMinimum) {
  // One word column past the pool's minimum: 2, 4 and 8 threads run that
  // many workers over 41 columns (uneven splits).  Repeats give the
  // barrier's completion step fresh interleavings; a step that throws
  // between rounds 2 and 3 must still end the run catchably.
  constexpr std::size_t kN = 64 * (kAllSourcesPoolMinWords + 1) - 10;
  const TwoStateParams params{2.0 / kN, 0.3};
  TwoStateEdgeMEG serial_graph(kN, params, 21);
  const AllSourcesResult serial = flood_all_sources(serial_graph, 600, 1);
  ASSERT_GT(serial.max_rounds, 3u);
  for (const std::size_t threads : kStressThreads) {
    ASSERT_GT(all_sources_workers(threads, kN), 1u);
    for (int repeat = 0; repeat < 2; ++repeat) {
      TwoStateEdgeMEG graph(kN, params, 21);
      const AllSourcesResult threaded = flood_all_sources(graph, 600, threads);
      ASSERT_EQ(threaded.completed_count, serial.completed_count);
      ASSERT_EQ(threaded.max_rounds, serial.max_rounds);
      for (std::size_t s = 0; s < kN; ++s) {
        ASSERT_EQ(threaded.per_source[s].informed_counts,
                  serial.per_source[s].informed_counts)
            << "threads=" << threads << " source " << s;
      }
    }
    ThrowingStepGraph throwing(kN, params);
    EXPECT_THROW(flood_all_sources(throwing, 600, threads),
                 std::runtime_error);
  }
}

// --- checkpoint journal: concurrent record() through the real file path ---

TEST(ThreadStress, CheckpointJournalConcurrentRecords) {
  const std::string path = "thread_stress_journal.ckpt";
  std::remove(path.c_str());
  TrialConfig config;
  config.trials = 32;
  config.seed = 13;
  config.max_rounds = 4000;
  config.threads = 8;
  Measurement fresh;
  {
    CheckpointJournal journal(
        path, CheckpointKey{{"stress", config.seed, config.trials},
                            config.threads});
    MeasureHooks hooks;
    hooks.checkpoint = &journal;
    fresh = measure(small_edge_meg(32), flooding_factory(), config, hooks);
    EXPECT_EQ(journal.replayed_trials(), 0u);
  }
  // Reopen: every trial must replay (find() short-circuits all work) and
  // the merged measurement must be bit-identical to the fresh run.
  {
    CheckpointJournal journal(
        path, CheckpointKey{{"stress", config.seed, config.trials},
                            config.threads});
    EXPECT_EQ(journal.replayed_trials(), config.trials);
    MeasureHooks hooks;
    hooks.checkpoint = &journal;
    const Measurement resumed =
        measure(small_edge_meg(32), flooding_factory(), config, hooks);
    EXPECT_EQ(resumed.resumed, config.trials);
    expect_equal_measurement(fresh, resumed, "journal replay");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace megflood
