#pragma once

// Discretization of the continuous square mobility region: the paper
// (Section 4.1) approximates the side-L square of R^2 with an m x m grid
// Q of regularly spaced points.  The random trip model (the random
// waypoint among its policies) runs over this grid; footnote 3
// guarantees the flooding bound is insensitive to the resolution m,
// which experiment E5 verifies by sweeping m.  The radius pairs of agents
// on the grid are found by ProximitySnapshotEngine
// (mobility/proximity_engine.hpp).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.hpp"

namespace megflood {

using CellId = std::uint32_t;

class SquareGrid {
 public:
  // m x m points regularly spaced over [0, L] x [0, L]; 2 <= m <= 65536,
  // the finest grid whose m * m point ids all fit in a CellId.
  SquareGrid(std::size_t m, double side_length);

  std::size_t resolution() const noexcept { return m_; }
  double side_length() const noexcept { return length_; }
  std::size_t num_points() const noexcept { return m_ * m_; }
  // Distance between adjacent grid points.
  double spacing() const noexcept { return spacing_; }
  double area() const noexcept { return length_ * length_; }

  CellId index(std::size_t row, std::size_t col) const;
  std::size_t row(CellId id) const { return id / m_; }
  std::size_t col(CellId id) const { return id % m_; }

  Point2D position(CellId id) const;

  // Grid point nearest to an arbitrary point of the square (clamped).
  // Inline and multiply-by-reciprocal: every mobility model snaps every
  // agent every round.  Each axis is clamp(std::round(v), 0, m - 1),
  // computed without the libm call: clamp first to c in [0, m - 1] (round
  // is monotone and fixes the integers 0 and m - 1, so the order does not
  // matter), then t = trunc(c) and round up iff c - t >= 0.5.  c - t is
  // exact: for c < 1, t = 0; for c >= 1, c / 2 <= t <= c, and Sterbenz's
  // lemma makes the difference exact.  So ties round away from zero with
  // no error, like std::round, and -0.0 and tiny negatives snap to 0.
  CellId nearest(const Point2D& p) const noexcept {
    return static_cast<CellId>(std::size_t{nearest_line(p.y)} * m_ +
                               nearest_line(p.x));
  }

  // One axis of nearest(): the grid line nearest to coordinate v, so
  // nearest(p) is row nearest_line(p.y), column nearest_line(p.x).
  std::uint32_t nearest_line(double v) const noexcept {
    return snap(v * inv_spacing_, static_cast<double>(m_ - 1));
  }

  // All grid points within Euclidean distance `radius` of point `id`
  // (excluding `id` itself).
  std::vector<CellId> disc(CellId id, double radius) const;

  // Whether the full Euclidean disc D(position(id), radius) fits inside
  // the square — i.e. position(id) lies in the eroded region B_r used by
  // Corollary 4's condition (b).
  bool disc_inside(CellId id, double radius) const;

 private:
  // One axis of nearest(): clamp(std::round(v), 0, top), exactly.
  static std::uint32_t snap(double v, double top) noexcept {
    const double c = std::clamp(v, 0.0, top);
    const auto t = static_cast<std::uint32_t>(c);
    return t + static_cast<std::uint32_t>(c - static_cast<double>(t) >= 0.5);
  }

  std::size_t m_;
  double length_;
  double spacing_;
  double inv_spacing_;
};

}  // namespace megflood
