#include "core/trial.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace megflood {

namespace {

// Salt separating the per-trial process-RNG seed stream from the graph
// seed stream; any fixed constant works, it only has to be deterministic.
constexpr std::uint64_t kProcessSeedSalt = 0x9d2c5680a76f4e1bULL;

using WatchdogClock = SpreadingProcess::WatchdogClock;
using Deadline = std::optional<WatchdogClock::time_point>;

// How each trial slot ended.  kNotRun survives to the merge only when
// cancellation stopped the campaign before the trial was claimed.
enum class SlotState : unsigned char { kNotRun, kDone, kError };

struct Slot {
  SlotState state = SlotState::kNotRun;
  TrialOutcome out;
  TrialError err;
};

Deadline trial_deadline(const TrialConfig& config) {
  if (config.trial_deadline_s <= 0.0) return std::nullopt;
  return WatchdogClock::now() +
         std::chrono::duration_cast<WatchdogClock::duration>(
             std::chrono::duration<double>(config.trial_deadline_s));
}

[[noreturn]] void deadline_exceeded(const char* where) {
  throw TrialDeadlineExceeded(std::string("trial exceeded its watchdog "
                                          "deadline (") +
                              where + ")");
}

TrialOutcome run_one(DynamicGraph& graph, SpreadingProcess& process,
                     std::size_t trial, std::uint64_t process_seed,
                     const TrialConfig& config, const Deadline& deadline) {
  for (std::uint64_t w = 0; w < config.warmup_steps; ++w) {
    // One clock read per 1024 steps keeps the watchdog off the warmup
    // hot path while still bounding a stalled warmup.
    if (deadline && (w & 1023u) == 1023u &&
        WatchdogClock::now() > *deadline) {
      deadline_exceeded("warmup");
    }
    graph.step();
  }
  const auto source = static_cast<NodeId>(
      config.rotate_sources ? trial % graph.num_nodes() : 0);
  process.arm_deadline(deadline);
  ProcessResult result =
      run_process(graph, process, source, config.max_rounds, process_seed);
  if (deadline && WatchdogClock::now() > *deadline) {
    deadline_exceeded("post-trial check");
  }
  TrialOutcome out;
  out.completed = result.flood.completed;
  if (result.flood.completed) {
    out.rounds = static_cast<double>(result.flood.rounds);
    const PhaseSplit phases = split_phases(result.flood, graph.num_nodes());
    out.spreading = static_cast<double>(phases.spreading_rounds);
    out.saturation = static_cast<double>(phases.saturation_rounds);
    out.metrics = std::move(result.metrics);
  }
  return out;
}

// Deterministic merge: slots are folded in trial-index order, so the
// measurement does not depend on the order trials finished in — nor on
// whether an outcome was computed now or replayed from a checkpoint.
Measurement merge_slots(std::vector<Slot>& slots, std::size_t resumed) {
  std::vector<double> rounds, spreading, saturation;
  std::map<std::string, std::vector<double>> metric_samples;
  Measurement m;
  for (Slot& slot : slots) {
    switch (slot.state) {
      case SlotState::kNotRun:
        ++m.not_run;
        continue;
      case SlotState::kError:
        m.errors.push_back(std::move(slot.err));
        continue;
      case SlotState::kDone:
        break;
    }
    if (!slot.out.completed) {
      ++m.incomplete;
      continue;
    }
    rounds.push_back(slot.out.rounds);
    spreading.push_back(slot.out.spreading);
    saturation.push_back(slot.out.saturation);
    for (const auto& [name, value] : slot.out.metrics) {
      metric_samples[name].push_back(value);
    }
  }
  m.rounds = summarize(std::move(rounds));
  m.spreading_rounds = summarize(std::move(spreading));
  m.saturation_rounds = summarize(std::move(saturation));
  for (auto& [name, samples] : metric_samples) {
    m.metrics[name] = summarize(std::move(samples));
  }
  m.interrupted = m.not_run > 0;
  m.resumed = resumed;
  return m;
}

std::size_t resolve_threads(std::size_t requested, std::size_t trials) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw > 0 ? hw : 1;
  }
  return std::min(requested, trials);
}

void check_config(const TrialConfig& config) {
  if (config.trials == 0) {
    throw std::invalid_argument("measure: trials must be > 0");
  }
}

// Shared per-trial body of the sequential and threaded paths: hooks,
// factories, the run, error containment, and the durable record.  Throws
// only when the error is not contained.
class TrialExecutor {
 public:
  TrialExecutor(const GraphFactory& graph_factory,
                const ProcessFactory& process_factory,
                const TrialConfig& config, const MeasureHooks& hooks,
                const std::vector<std::uint64_t>& graph_seeds,
                const std::vector<std::uint64_t>& process_seeds)
      : graph_factory_(graph_factory),
        process_factory_(process_factory),
        config_(config),
        hooks_(hooks),
        graph_seeds_(graph_seeds),
        process_seeds_(process_seeds) {}

  void execute(std::size_t trial, Slot& slot) {
    const Deadline deadline = trial_deadline(config_);
    try {
      if (hooks_.on_trial_start) hooks_.on_trial_start(trial);
      const std::unique_ptr<DynamicGraph> graph =
          graph_factory_(graph_seeds_[trial]);
      const std::unique_ptr<SpreadingProcess> process = process_factory_();
      slot.out = run_one(*graph, *process, trial, process_seeds_[trial],
                         config_, deadline);
      slot.state = SlotState::kDone;
    } catch (const std::exception& error) {
      if (!config_.contain_errors) throw;
      slot.state = SlotState::kError;
      slot.err = TrialError{trial, graph_seeds_[trial], process_seeds_[trial],
                            error.what()};
    } catch (...) {
      if (!config_.contain_errors) throw;
      slot.state = SlotState::kError;
      slot.err = TrialError{trial, graph_seeds_[trial], process_seeds_[trial],
                            "unknown exception"};
    }
    // The record and the post-record hook share one lock so "after the
    // K-th durable record" fault sites see a well-defined count even
    // with concurrent workers.
    const std::lock_guard<std::mutex> lock(record_mutex_);
    if (slot.state == SlotState::kError) {
      if (hooks_.checkpoint) hooks_.checkpoint->record_error(slot.err);
      return;
    }
    if (hooks_.checkpoint) hooks_.checkpoint->record(trial, slot.out);
    if (hooks_.on_trial_recorded) hooks_.on_trial_recorded(trial);
  }

 private:
  const GraphFactory& graph_factory_;
  const ProcessFactory& process_factory_;
  const TrialConfig& config_;
  const MeasureHooks& hooks_;
  const std::vector<std::uint64_t>& graph_seeds_;
  const std::vector<std::uint64_t>& process_seeds_;
  std::mutex record_mutex_;
};

}  // namespace

Measurement measure(const GraphFactory& graph_factory,
                    const ProcessFactory& process_factory,
                    const TrialConfig& config, const MeasureHooks& hooks) {
  check_config(config);
  // Two decorrelated streams from one root seed: graph seeds keep the
  // exact derivation flooding measurements have always used, process-RNG
  // seeds come from a salted stream (so protocol randomness never aliases
  // model randomness, and every trial stays a pure function of config.seed
  // and its index).
  const auto graph_seeds = derive_seeds(config.seed, config.trials);
  const auto process_seeds =
      derive_seeds(config.seed ^ kProcessSeedSalt, config.trials);
  std::vector<Slot> slots(config.trials);
  // Resume: trials the journal already holds are replayed bit-for-bit and
  // never re-run (their slot is Done before any worker starts).
  std::size_t resumed = 0;
  if (hooks.checkpoint) {
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      if (const TrialOutcome* out = hooks.checkpoint->find(trial)) {
        slots[trial].out = *out;
        slots[trial].state = SlotState::kDone;
        ++resumed;
      }
    }
  }
  const auto cancelled = [&hooks] {
    return hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
  };
  TrialExecutor executor(graph_factory, process_factory, config, hooks,
                         graph_seeds, process_seeds);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed) && !cancelled()) {
      const std::size_t trial = next.fetch_add(1);
      if (trial >= config.trials) break;
      if (slots[trial].state == SlotState::kDone) continue;  // resumed
      try {
        executor.execute(trial, slots[trial]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  // The calling thread is one of the workers, so one worker starts no
  // thread.
  const std::size_t threads = resolve_threads(config.threads, config.trials);
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return merge_slots(slots, resumed);
}

}  // namespace megflood
