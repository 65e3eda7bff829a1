// e2e_campaign — runs one megflood campaign exactly as
// `megflood_run --format=json` does (parse the scenario flags, build the
// model and process factories, measure(), render result_json_object) and
// reports where the time went.
//
//   e2e_campaign [--trace] --model=... [scenario flags]
//
// stdout: the result object + '\n', byte for byte what megflood_run
//         --format=json prints for the same flags.
// stderr: last line is one JSON timing record.  Without --trace it holds
//         only `first_trial_start` (CLOCK_MONOTONIC seconds, comparable
//         with the launcher's clock) and the process's peak RSS — the
//         only hook installed is a
//         timestamp in MeasureHooks::on_trial_start.  With --trace every
//         graph the model factory returns is wrapped in TracedGraph, which
//         times construction and every step() and counts the edges of
//         every snapshot the process reads; trial spans come from the
//         on_trial_start / on_trial_recorded hooks.
//
// Exit codes follow megflood_run: 0 ok, 2 bad scenario, 3 no trial
// completed, 4 trial errors.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "util/resource.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using megflood::DynamicGraph;
using megflood::Snapshot;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double monotonic_seconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// Totals over every graph of the campaign; each TracedGraph folds its own
// counters in when it is destroyed (end of its trial).
struct LayerTotals {
  std::mutex mutex;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  std::uint64_t warmup_steps = 0;
  double step_s = 0.0;
  std::vector<double> step_us;  // one sample per post-warmup step
  std::uint64_t snapshot_reads = 0;
  std::uint64_t snapshot_edges = 0;
};

// Forwarding decorator: same graph, same draws, same snapshots — only
// timed.  The first `warmup` steps of each instance are the trial's
// warmup (measure() runs them before the process starts).
class TracedGraph final : public DynamicGraph {
 public:
  TracedGraph(std::unique_ptr<DynamicGraph> inner, std::uint64_t warmup,
              LayerTotals& totals)
      : inner_(std::move(inner)), warmup_(warmup), totals_(totals) {}

  ~TracedGraph() override {
    const std::lock_guard<std::mutex> lock(totals_.mutex);
    totals_.warmup_s += warmup_s_;
    totals_.warmup_steps += std::min(steps_, warmup_);
    totals_.step_s += step_s_;
    totals_.step_us.insert(totals_.step_us.end(), step_us_.begin(),
                           step_us_.end());
    totals_.snapshot_reads += snapshot_reads_;
    totals_.snapshot_edges += snapshot_edges_;
  }

  std::size_t num_nodes() const override { return inner_->num_nodes(); }

  const Snapshot& snapshot() const override {
    const Snapshot& snapshot = inner_->snapshot();
    ++snapshot_reads_;
    snapshot_edges_ += snapshot.num_edges();
    return snapshot;
  }

  void step() override {
    const Clock::time_point start = Clock::now();
    inner_->step();
    const double took = seconds_between(start, Clock::now());
    if (steps_ < warmup_) {
      warmup_s_ += took;
    } else {
      step_s_ += took;
      step_us_.push_back(took * 1e6);
    }
    ++steps_;
    advance_clock();
  }

  void reset(std::uint64_t seed) override {
    inner_->reset(seed);
    steps_ = 0;
    reset_clock();
  }

 private:
  std::unique_ptr<DynamicGraph> inner_;
  std::uint64_t warmup_;
  LayerTotals& totals_;
  std::uint64_t steps_ = 0;
  double warmup_s_ = 0.0;
  double step_s_ = 0.0;
  std::vector<double> step_us_;
  mutable std::uint64_t snapshot_reads_ = 0;
  mutable std::uint64_t snapshot_edges_ = 0;
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buffer[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%.6g", i ? "," : "", values[i]);
    out += buffer;
  }
  return out + "]";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

int exit_code(const megflood::Measurement& m) {
  if (!m.errors.empty() || m.interrupted) return 4;
  if (m.all_incomplete()) return 3;
  return 0;
}

int run(const std::vector<std::string>& args, bool trace) {
  megflood::ScenarioSpec spec = megflood::parse_scenario_args(args);
  spec.trial.contain_errors = true;  // megflood_run's --contain=1 default

  // Trial spans.  Slots are per trial index, so concurrent workers (a
  // --threads>1 campaign) write disjoint elements.
  std::vector<Clock::time_point> trial_start(spec.trial.trials);
  std::vector<Clock::time_point> trial_end(spec.trial.trials);
  megflood::MeasureHooks hooks;
  hooks.on_trial_start = [&trial_start](std::size_t trial) {
    trial_start[trial] = Clock::now();
  };

  megflood::ScenarioResult result;
  LayerTotals totals;
  double validate_s = 0.0;
  double merge_s = 0.0;
  if (!trace) {
    result = megflood::run_scenario(spec, hooks);
  } else {
    hooks.on_trial_recorded = [&trial_end](std::size_t trial) {
      trial_end[trial] = Clock::now();
    };
    // run_scenario, spelled out so the model factory can be wrapped.
    const Clock::time_point validate_start = Clock::now();
    const megflood::ScenarioModel model = megflood::make_model_factory(spec);
    const megflood::ProcessFactory process =
        megflood::make_process_factory(spec.process);
    megflood::TrialConfig trial = spec.trial;
    if (spec.warmup_auto) {
      if (!model.suggested_warmup) {
        throw std::invalid_argument("model declares no suggested warmup");
      }
      trial.warmup_steps = *model.suggested_warmup;
    }
    validate_s = seconds_between(validate_start, Clock::now());
    const megflood::GraphFactory traced =
        [&model, &totals, warmup = trial.warmup_steps](std::uint64_t seed) {
          const Clock::time_point start = Clock::now();
          std::unique_ptr<DynamicGraph> graph = model.factory(seed);
          const double took = seconds_between(start, Clock::now());
          {
            const std::lock_guard<std::mutex> lock(totals.mutex);
            totals.construct_s += took;
          }
          return std::unique_ptr<DynamicGraph>(
              std::make_unique<TracedGraph>(std::move(graph), warmup, totals));
        };
    result.num_nodes = model.num_nodes;
    result.warnings = model.warnings;
    result.measurement = megflood::measure(traced, process, trial, hooks);
    const Clock::time_point measured = Clock::now();
    Clock::time_point last_recorded{};
    for (const Clock::time_point& t : trial_end) {
      last_recorded = std::max(last_recorded, t);
    }
    merge_s = seconds_between(last_recorded, measured);
  }

  const Clock::time_point render_start = Clock::now();
  const std::string bytes =
      megflood::result_json_object(spec, result, result.warnings);
  const double render_s = seconds_between(render_start, Clock::now());
  std::cout << bytes << '\n' << std::flush;

  std::string record =
      "{\"first_trial_start\": " +
      std::to_string(monotonic_seconds(trial_start[0])) +
      ", \"peak_rss_bytes\": " + std::to_string(megflood::peak_rss_bytes());
  if (trace) {
    std::vector<double> trial_ms;
    for (std::size_t t = 0; t < trial_start.size(); ++t) {
      if (trial_end[t] > trial_start[t]) {
        trial_ms.push_back(seconds_between(trial_start[t], trial_end[t]) *
                           1e3);
      }
    }
    record += ", \"validate_ms\": " + json_number(validate_s * 1e3) +
              ", \"construct_s\": " + json_number(totals.construct_s) +
              ", \"warmup_s\": " + json_number(totals.warmup_s) +
              ", \"warmup_steps\": " + std::to_string(totals.warmup_steps) +
              ", \"step_s\": " + json_number(totals.step_s) +
              ", \"snapshot_reads\": " + std::to_string(totals.snapshot_reads) +
              ", \"snapshot_edges\": " + std::to_string(totals.snapshot_edges) +
              ", \"merge_s\": " + json_number(merge_s) +
              ", \"render_ms\": " + json_number(render_s * 1e3) +
              ", \"trial_ms\": " + json_array(trial_ms) +
              ", \"step_us\": " + json_array(totals.step_us);
  }
  std::cerr << record << "}\n";
  return exit_code(result.measurement);
}

}  // namespace

int main(int argc, char** argv) {
  bool trace = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else {
      args.push_back(arg);
    }
  }
  try {
    return run(args, trace);
  } catch (const std::invalid_argument& error) {
    std::cerr << "e2e_campaign: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "e2e_campaign: run failed: " << error.what() << "\n";
    return 4;
  }
}
