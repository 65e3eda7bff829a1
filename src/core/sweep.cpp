#include "core/sweep.hpp"

#include <set>
#include <stdexcept>

#include "core/format.hpp"
#include "util/parse.hpp"

namespace megflood {

namespace {

double parse_sweep_number(const std::string& what, const std::string& text) {
  const auto parsed = parse_finite_double(text);
  if (!parsed) {
    throw std::invalid_argument("sweep " + what + ": '" + text +
                                "' is not a finite number");
  }
  return *parsed;
}

}  // namespace

SweepSpec parse_sweep(const std::string& value) {
  SweepSpec sweep;
  const std::size_t eq = value.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument(
        "sweep: expected key=a:b:step, got '" + value + "'");
  }
  sweep.key = value.substr(0, eq);
  const std::string range = value.substr(eq + 1);
  const std::size_t c1 = range.find(':');
  const std::size_t c2 = c1 == std::string::npos
                             ? std::string::npos
                             : range.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos ||
      range.find(':', c2 + 1) != std::string::npos) {
    throw std::invalid_argument(
        "sweep: expected key=a:b:step, got '" + value + "'");
  }
  sweep.lo = parse_sweep_number("start", range.substr(0, c1));
  sweep.hi = parse_sweep_number("stop", range.substr(c1 + 1, c2 - c1 - 1));
  sweep.step = parse_sweep_number("step", range.substr(c2 + 1));
  if (sweep.step <= 0.0) {
    throw std::invalid_argument("sweep: step must be > 0");
  }
  if (sweep.lo > sweep.hi) {
    throw std::invalid_argument("sweep: start must be <= stop");
  }
  if ((sweep.hi - sweep.lo) / sweep.step > 10000.0) {
    throw std::invalid_argument("sweep: more than 10000 points");
  }
  return sweep;
}

std::vector<SweepSpec> parse_multi_sweep(const std::string& value) {
  std::vector<SweepSpec> axes;
  std::set<std::string> seen;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string axis_text =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (axis_text.empty()) {
      throw std::invalid_argument(
          "sweep: empty axis in '" + value +
          "' (expected key=a:b:step[,key=a:b:step...])");
    }
    SweepSpec axis = parse_sweep(axis_text);
    if (!seen.insert(axis.key).second) {
      throw std::invalid_argument("sweep: key '" + axis.key +
                                  "' appears more than once");
    }
    axes.push_back(std::move(axis));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return axes;
}

std::vector<std::string> sweep_axis_values(const SweepSpec& axis) {
  std::vector<std::string> values;
  for (std::size_t i = 0;; ++i) {
    const double value = axis.lo + static_cast<double>(i) * axis.step;
    if (value > axis.hi + axis.step * 1e-9) break;
    values.push_back(format_cli_number(value));
  }
  return values;
}

std::vector<SweepPoint> expand_sweep_points(
    const std::vector<SweepSpec>& axes) {
  if (axes.empty()) return {};
  std::vector<SweepPoint> points = {SweepPoint{}};
  for (const SweepSpec& axis : axes) {
    const std::vector<std::string> values = sweep_axis_values(axis);
    std::vector<SweepPoint> next;
    if (points.size() * values.size() > 100000) {
      throw std::invalid_argument("sweep: more than 100000 points total");
    }
    next.reserve(points.size() * values.size());
    // First axis slowest: extend every existing prefix with each value of
    // the new (faster) axis in order.
    for (const SweepPoint& prefix : points) {
      for (const std::string& value : values) {
        SweepPoint point = prefix;
        point.emplace_back(axis.key, value);
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

}  // namespace megflood
