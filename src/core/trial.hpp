#pragma once

// Multi-trial measurement harness.  The paper's bounds hold "with high
// probability", so experiments report upper quantiles (p90/p99/max) of the
// completion time over independent trials, each trial with a fresh model
// seed and (optionally) a rotating source — approximating
// F(G) = max_s F(G, s).
//
// The harness is process-generic: measure() runs any SpreadingProcess
// (flooding, gossip, k-push, radio broadcast, TTL flooding, ...) through
// the same machinery — warmup, rotating sources, derive_seeds per-trial
// seeding, the thread pool, quantile summaries, phase splits,
// incomplete-trial accounting, and per-metric aggregation.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "core/flooding.hpp"
#include "core/process.hpp"
#include "util/stats.hpp"

namespace megflood {

struct TrialConfig {
  std::size_t trials = 32;
  std::uint64_t seed = 1;
  std::uint64_t max_rounds = 1'000'000;
  // If true, the source node rotates across trials; otherwise node 0.
  bool rotate_sources = true;
  // Number of warm-up steps to run after reset before the process starts
  // (lets non-stationary initializations approach stationarity).
  std::uint64_t warmup_steps = 0;
  // Worker threads for measure: trials are distributed across workers,
  // each constructing its own graph and process through the factories
  // (the factories must therefore be safe to call concurrently; the stock
  // harness factories, which only read captured parameters, are).  Every
  // trial is a pure function of its derive_seeds() entries and its index,
  // and per-trial outcomes are merged in trial order, so the measurement
  // is bit-identical for every thread count.  0 = one worker per
  // hardware thread.
  std::size_t threads = 1;
  // Error containment: when true, a trial that throws (model construction,
  // the process, a fault-injection site, the watchdog) is recorded as a
  // TrialError in the measurement instead of aborting the campaign — the
  // remaining trials still run.  When false (the historical behavior) the
  // first trial exception propagates out of measure().
  bool contain_errors = false;
  // Cooperative per-trial watchdog: a trial whose wall clock (hooks +
  // model construction + warmup + rounds) exceeds this many seconds is
  // reported as a TrialError ("watchdog deadline") rather than being
  // waited on forever.  Checked between warmup batches, once per round in
  // the generic process engine, and when the trial returns; 0 disables.
  // A deadline makes *error* outcomes wall-clock dependent — leave it 0
  // for bit-reproducibility experiments.
  double trial_deadline_s = 0.0;
};

// Everything one completed-or-incomplete trial contributes to the
// measurement; computed independently per trial so workers never share
// mutable state, and exactly what a CheckpointSink journals.
struct TrialOutcome {
  bool completed = false;  // process informed all nodes within max_rounds
  double rounds = 0.0;
  double spreading = 0.0;
  double saturation = 0.0;
  MetricsBag metrics;
};

// A contained trial failure: which trial, the seeds it was dealt (enough
// to replay it in isolation), and the exception text.
struct TrialError {
  std::size_t trial = 0;
  std::uint64_t graph_seed = 0;
  std::uint64_t process_seed = 0;
  std::string what;
};

// Durable-progress interface for measure(): find() returns the journaled
// outcome of a trial completed by an earlier (interrupted) run, record()
// appends a trial's outcome durably *before* the runner counts it as
// done, record_error() journals a contained failure for the post-mortem.
// Implementations must make record()/record_error() safe to call from
// concurrent workers; core/checkpoint.hpp provides the file-backed
// journal, tests use in-memory fakes.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  // Outcome of `trial` if durably recorded, nullptr otherwise.  Only read
  // before the workers start, so it need not be thread-safe.
  virtual const TrialOutcome* find(std::size_t trial) const = 0;
  virtual void record(std::size_t trial, const TrialOutcome& outcome) = 0;
  virtual void record_error(const TrialError& /*error*/) {}
};

// Optional wiring for measure(): durable checkpointing, cooperative
// cancellation, and test/fault-injection hooks.  All members are
// optional; a default-constructed MeasureHooks reproduces plain measure().
struct MeasureHooks {
  // Journal of completed trials: trials found in it are replayed (their
  // recorded outcome is merged bit-for-bit, nothing re-runs), all others
  // are recorded as they finish.  Because every trial is a pure function
  // of config.seed and its index and outcomes merge in trial order, an
  // interrupted-then-resumed campaign is bit-identical to an
  // uninterrupted one.
  CheckpointSink* checkpoint = nullptr;
  // Graceful shutdown: when the pointee becomes true, workers stop
  // claiming new trials; trials already running finish and are recorded.
  // The returned measurement has interrupted = true and counts the
  // never-started trials in not_run.
  const std::atomic<bool>* cancel = nullptr;
  // Called at the start of every freshly-run trial (not for checkpoint
  // replays) and after a trial's outcome is durably recorded.  Both must
  // be safe to call concurrently; on_trial_start may throw to inject a
  // trial failure (util/fault_injection.hpp).
  std::function<void(std::size_t trial)> on_trial_start;
  std::function<void(std::size_t trial)> on_trial_recorded;
};

struct Measurement {
  Summary rounds;                 // over completed trials
  std::size_t incomplete = 0;     // trials that hit max_rounds (or died out)
  Summary spreading_rounds;       // phase split (completed trials only)
  Summary saturation_rounds;
  // Process metrics aggregated over completed trials, keyed by the metric
  // name the process exports (e.g. gossip "contacts", k-push
  // "transmissions", radio "collisions").
  std::map<std::string, Summary> metrics;
  // Contained trial failures (TrialConfig::contain_errors), in trial
  // order.  Errored trials contribute to no Summary — they are neither
  // completed nor "incomplete" (which means "ran to max_rounds").
  std::vector<TrialError> errors;
  // Trials never attempted because cancellation was requested
  // (MeasureHooks::cancel) before they were claimed.
  std::size_t not_run = 0;
  bool interrupted = false;
  // Trials whose outcome was replayed from the checkpoint journal
  // instead of re-run.
  std::size_t resumed = 0;
  // True when not a single trial completed within max_rounds.  Every
  // Summary above is then over zero samples — all fields read 0.0 — and
  // must not be mistaken for "completion takes 0 rounds"; harness output
  // goes through this predicate before printing round statistics.
  bool all_incomplete() const noexcept { return rounds.count == 0; }
};

using GraphFactory =
    std::function<std::unique_ptr<DynamicGraph>(std::uint64_t)>;
using ProcessFactory = std::function<std::unique_ptr<SpreadingProcess>()>;

// Runs `config.trials` experiments of the process produced by
// `process_factory()` on the graph produced by `graph_factory(seed)`;
// both factories are called once per trial (concurrently when
// config.threads != 1).  Trial t's graph seed and process-RNG seed are
// derived from config.seed via two decorrelated derive_seeds streams.
// `hooks` wires in checkpointing, cancellation and fault injection (see
// MeasureHooks); the default is a plain uninstrumented run.
Measurement measure(const GraphFactory& graph_factory,
                    const ProcessFactory& process_factory,
                    const TrialConfig& config,
                    const MeasureHooks& hooks = {});

}  // namespace megflood
