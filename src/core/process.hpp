#pragma once

// The unified spreading-process abstraction.  The paper's Section 5
// observes that gossip-style protocols reduce to flooding on virtual
// dynamic graphs; this header makes that observation an API: every
// protocol is a per-round rule applied to an informed set against the
// live snapshot stream, and everything else — trial loops, warmup,
// rotating sources, thread pools, quantile summaries, incomplete-trial
// accounting — is shared machinery (core/trial.hpp) that works for any
// SpreadingProcess, not just plain flooding.
//
// Contract of one round (synchronous, no within-round chaining):
//   * on entry informed[v] == 1 for nodes informed before the round and
//     0 otherwise;
//   * the process marks every node it informs with informed[v] = 2 and
//     appends it to `newly` exactly once (the mark prevents duplicate
//     appends and lets pull-style rules distinguish "informed before the
//     round" from "learned it this round");
//   * the driver commits marks back to 1 after the round.
// All randomness comes from the driver-owned Rng, seeded per trial from
// derive_seeds — no protocol rolls its own seed arithmetic.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "core/flooding.hpp"
#include "util/rng.hpp"

namespace megflood {

// Named per-trial counters a process accumulates (gossip contacts, k-push
// transmissions, radio collisions, ...).  An ordered map so aggregation
// and printing are deterministic.
using MetricsBag = std::map<std::string, double>;

struct ProcessResult {
  FloodResult flood;
  MetricsBag metrics;
};

// Thrown by the cooperative per-trial watchdog (TrialConfig::
// trial_deadline_s) when a trial's wall clock runs past its deadline.
// The containing runner (core/trial) converts it into a TrialError
// record; without containment it propagates like any trial failure.
class TrialDeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SpreadingProcess {
 public:
  virtual ~SpreadingProcess() = default;

  // Canonical spec string of this process instance, matching the scenario
  // grammar (e.g. "flooding", "gossip:pushpull", "kpush:3", "radio:0.5",
  // "ttl:8").
  virtual std::string name() const = 0;

  // Called once before the first round of every trial; must reset all
  // per-trial state (metrics, TTL counters, ...).
  virtual void begin_trial(std::size_t num_nodes, NodeId source) = 0;

  // One protocol round on the current snapshot (see the contract above).
  virtual void round(const Snapshot& snapshot, std::vector<char>& informed,
                     std::vector<NodeId>& newly, Rng& rng) = 0;

  // True when the process can never inform another node (e.g. TTL
  // relaying died out everywhere); run_process() then stops early and
  // reports the trial incomplete.
  virtual bool exhausted() const { return false; }

  // Export this trial's metrics.
  virtual void metrics(MetricsBag& /*out*/) const {}

  // Runs one full trial (what run_process() dispatches to).  The default
  // drives round() against the live snapshot stream — the generic
  // engine.  A process whose rule coincides with plain flooding may
  // override this to substitute the word-parallel flood() kernel; any
  // override must produce bit-identical results to the default.
  virtual ProcessResult run(DynamicGraph& graph, NodeId source,
                            std::uint64_t max_rounds, std::uint64_t seed);

  // Cooperative watchdog: the trial runner arms a wall-clock deadline
  // before run(); the generic round engine checks it once per round and
  // throws TrialDeadlineExceeded past it.  Whole-kernel overrides (the
  // flooding word-parallel kernel) need no mid-kernel check — their round
  // count is hard-bounded by max_rounds and the runner re-checks the
  // deadline when the trial returns.  Checking the clock never perturbs
  // results: a trial either finishes identically or becomes an error.
  using WatchdogClock = std::chrono::steady_clock;
  void arm_deadline(std::optional<WatchdogClock::time_point> deadline) {
    deadline_ = deadline;
  }

 protected:
  void check_deadline() const {
    if (deadline_ && WatchdogClock::now() > *deadline_) {
      throw TrialDeadlineExceeded(
          "trial exceeded its watchdog deadline (mid-trial check)");
    }
  }

 private:
  std::optional<WatchdogClock::time_point> deadline_;
};

// Runs `process` from `source` on `graph` starting at the graph's current
// snapshot, stepping the graph between rounds (exactly flood()'s
// clocking): no step follows the last round, whether it completed the
// spread, left the process exhausted() or used up the budget.  `seed`
// seeds the driver-owned Rng handed to every round; deterministic
// processes simply never draw from it.  Dispatches to
// process.run() so flooding-equivalent processes keep the word-parallel
// engine.
ProcessResult run_process(DynamicGraph& graph, SpreadingProcess& process,
                          NodeId source, std::uint64_t max_rounds,
                          std::uint64_t seed);

// Plain flooding as a SpreadingProcess: every informed node informs its
// whole neighborhood.  Deterministic (consumes no randomness).  Metric:
// "transmissions" = sum over executed rounds of |I_t| (every informed
// node sends every round).  run() substitutes the word-parallel flood()
// kernel (bit-identical to the generic round() engine, which is retained
// for the equivalence test), so measured flooding keeps the fast engine.
class FloodingProcess final : public SpreadingProcess {
 public:
  std::string name() const override { return "flooding"; }
  void begin_trial(std::size_t num_nodes, NodeId source) override;
  void round(const Snapshot& snapshot, std::vector<char>& informed,
             std::vector<NodeId>& newly, Rng& rng) override;
  void metrics(MetricsBag& out) const override;
  ProcessResult run(DynamicGraph& graph, NodeId source,
                    std::uint64_t max_rounds, std::uint64_t seed) override;

 private:
  std::size_t informed_count_ = 0;
  std::uint64_t transmissions_ = 0;
};

}  // namespace megflood
