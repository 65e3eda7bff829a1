#pragma once

// Shared helpers for the experiment harnesses (bench_e01 .. bench_e11).
// Each harness prints paper-style tables through util/table.hpp; this
// header adds the calibrated-bound machinery: the paper states O(.) bounds,
// so each experiment family calibrates one multiplicative constant at its
// smallest instance and then reports whether the calibrated bound dominates
// every larger instance (the honest numeric reading of an asymptotic
// upper-bound claim).

#include <iostream>
#include <string>
#include <vector>

#include "analysis/calibration.hpp"
#include "core/trial.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace megflood::bench {

using megflood::BoundCalibrator;

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

inline void print_footer(const BoundCalibrator& cal,
                         const std::string& what) {
  std::cout << "\ncalibrated constant c = " << Table::num(cal.constant())
            << "; " << what << " dominated by c*bound (3x slack): "
            << verdict(cal.all_dominated()) << "\n";
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

}  // namespace megflood::bench
