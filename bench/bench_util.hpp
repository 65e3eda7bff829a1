#pragma once

// Shared helpers for the experiment harnesses (bench_e01 .. bench_e12 and
// the ablations bench_a1 .. bench_a7).  Each harness prints paper-style
// tables through util/table.hpp; this header adds two things:
//  * harness points are scenarios: run() measures one point through the
//    scenario registry from the same argument list megflood_run and
//    megflood_serve accept, so every table row re-runs from the command
//    line;
//  * the calibrated-bound machinery: the paper states O(.) bounds, so each
//    experiment family calibrates one multiplicative constant at its
//    smallest instance and then reports whether the calibrated bound
//    dominates every larger instance (the honest numeric reading of an
//    asymptotic upper-bound claim).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/calibration.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace megflood::bench {

// Formats a double model parameter with 17 significant digits, so the
// registry parses back exactly the double the harness computed (fewer
// digits would round it and move the draws).
inline std::string num_arg(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// Measures one harness point: `args` is a megflood_run argument list
// (--model=, model parameters, --trials=, --seed=, ...).  Trials run on
// one worker per hardware thread; the merge is bit-identical for every
// thread count.
inline Measurement run(const std::vector<std::string>& args) {
  ScenarioSpec spec = parse_scenario_args(args);
  spec.trial.threads = 0;
  return run_scenario(spec).measurement;
}

// The registry's model for `args`, for harnesses that drive a model
// themselves (full trajectories, all sources, traces, overlays).
inline ScenarioModel model(const std::vector<std::string>& args) {
  return make_model_factory(parse_scenario_args(args));
}

// One realization of `model` for `seed`, stepped through the model's
// suggested warmup (none for models that declare none).
inline std::unique_ptr<DynamicGraph> warmed_graph(const ScenarioModel& model,
                                                  std::uint64_t seed) {
  auto graph = model.factory(seed);
  for (std::uint64_t w = 0; w < model.suggested_warmup.value_or(0); ++w) {
    graph->step();
  }
  return graph;
}

inline std::string verdict(bool ok) { return ok ? "yes" : "NO"; }

// Formats a rounds statistic for a table cell.  When no trial completed,
// every Summary field reads 0 and must not be printed as a real flooding
// time — the cell says so instead.
inline std::string fmt_rounds(const Measurement& m, double value,
                              int precision = 1) {
  return m.all_incomplete() ? "n/a (0 done)" : Table::num(value, precision);
}

// One-line completion warning shared by the harnesses; distinguishes the
// partial case from the fully incomplete one.
inline void warn_incomplete(const Measurement& m, const std::string& where) {
  if (m.all_incomplete()) {
    std::cout << "WARNING: no completed trials at " << where
              << " — round statistics are not meaningful\n";
  } else if (m.incomplete > 0) {
    std::cout << "WARNING: " << m.incomplete << " incomplete trials at "
              << where << "\n";
  }
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

// Fits measured-vs-x scaling in log-log space and prints the exponent.
inline void print_slope(const std::string& label, const std::vector<double>& x,
                        const std::vector<double>& y) {
  if (x.size() >= 2) {
    const LinearFit fit = loglog_fit(x, y);
    std::cout << label << ": fitted exponent " << Table::num(fit.slope)
              << " (R^2 = " << Table::num(fit.r_squared) << ")\n";
  }
}

// One calibrated-bound sweep over a variable x (n, K, s, ...).  Each row
// gets the cells flood p50, flood p90, bound(raw), bound(calibrated) and
// dominated (p90 within the calibrator's slack of the calibrated bound).
// A row where no trial completed does not calibrate the constant, reads
// "n/a" and stays out of the slope fit.
class CalibratedSweep {
 public:
  // `x_name` names x in the incomplete-trial warning ("n=64").
  explicit CalibratedSweep(std::string x_name) : x_name_(std::move(x_name)) {}

  // Returns `cells` with the five calibrated cells appended.
  std::vector<std::string> row(std::vector<std::string> cells, double x,
                               const Measurement& m, double raw) {
    const bool usable = !m.all_incomplete();
    const double calibrated = usable ? cal_.record(m.rounds.p90, raw) : 0.0;
    cells.insert(
        cells.end(),
        {fmt_rounds(m, m.rounds.median), fmt_rounds(m, m.rounds.p90),
         Table::num(raw, 1), usable ? Table::num(calibrated, 1) : "n/a",
         usable ? verdict(m.rounds.p90 <= cal_.slack() * calibrated)
                : "n/a"});
    if (usable) {
      xs_.push_back(x);
      p90s_.push_back(m.rounds.p90);
    }
    warn_incomplete(m, x_name_ + "=" + Table::integer(std::llround(x)));
    return cells;
  }

  void print_footer(const std::string& what) const {
    std::cout << "\ncalibrated constant c = " << Table::num(cal_.constant())
              << "; " << what << " dominated by c*bound (3x slack): "
              << verdict(cal_.all_dominated()) << "\n";
  }

  // Log-log fit of the usable rows' p90 against x.
  void print_slope(const std::string& label) const {
    bench::print_slope(label, xs_, p90s_);
  }

 private:
  std::string x_name_;
  BoundCalibrator cal_;
  std::vector<double> xs_, p90s_;
};

}  // namespace megflood::bench
