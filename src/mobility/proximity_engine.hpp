#pragma once

// Snapshot maintenance for the geometric mobility model (RandomTripModel,
// the random waypoint among its policies), built lazily.  The positions
// are structure of arrays, xs() and ys(), so that the model's move pass
// works on two agents per SSE2 register.  The model moves the agents
// there and calls moved(); nothing else happens until someone reads
// snapshot(), so steps nobody reads (a trial's warmup) cost only the
// kinematics.  The first read after a move snaps every agent to its grid
// point and builds the snapshot through ColocationBuilder
// (mobility/colocation.hpp), with the snap fused into its counting sort.
//
// Two regimes, told apart by one_point().  Radius pairs are found in
// buckets of side L / bps >= r, bps = max(1, floor(L / r)) per side, so
// every pair lies in one bucket or in two adjacent ones.
//  * One point per bucket, when bps >= m: m columns need m buckets, and
//    at bps >= m each column step moves the bucket by bps / (m - 1) > 1.
//    Then r <= L / m < L / (m - 1) = spacing, so no pair spans two grid
//    points: the snapshot is a disjoint union of cliques, one per
//    occupied grid point, held as the builder's groups (no key or CSR
//    is written unless a reader asks for one).  The waypoint_gossip
//    campaign (L = 64, m = 32, r = 1, spacing 2.06) runs here.
//  * Multi-point grids (L = 64, m = 256): the builder's point is the
//    agent's bucket, floor(c * bps / (m - 1)) per axis clamped to
//    bps - 1, exactly, for grid line c; the forward neighbours of a
//    bucket are its E, SW, S and SE buckets, in that order; and a filter
//    keeps the candidate pairs whose grid points are within the radius.
//    The CSR is built lazily.
//
// A snapshot is a pure function of the current positions, so skipping
// reads is invisible, and the engine draws no randomness.
//
// snapshot() is const but does the deferred work on its first call after
// moved(); the deferred state is mutable, like Snapshot's lazy CSR.  So
// concurrent first reads race (the DynamicGraph::snapshot() contract).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/snapshot.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "mobility/colocation.hpp"

namespace megflood {

class ProximitySnapshotEngine {
 public:
  ProximitySnapshotEngine(const SquareGrid& grid, double radius,
                          std::size_t num_agents)
      : grid_(grid),
        radius_(radius),
        x_(num_agents),
        y_(num_agents),
        snapshot_(num_agents) {
    if (one_point(grid, radius)) return;
    const std::size_t m = grid.resolution();
    buckets_per_side_ = static_cast<std::uint32_t>(
        std::max(1.0, std::floor(grid.side_length() / radius)));
    axis_bucket_.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
      axis_bucket_[c] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(c * buckets_per_side_ / (m - 1),
                                  buckets_per_side_ - 1));
    }
    grid_points_.resize(num_agents);
  }

  // Whether each bucket holds at most one grid point: floor(L / r) >= m,
  // in floating point, so a tiny radius forms no bucket count.  Throws
  // std::invalid_argument unless radius > 0.
  static bool one_point(const SquareGrid& grid, double radius) {
    if (!(radius > 0.0)) {
      throw std::invalid_argument(
          "ProximitySnapshotEngine: radius must be positive");
    }
    return std::floor(grid.side_length() / radius) >=
           static_cast<double>(grid.resolution());
  }

  const SquareGrid& grid() const noexcept { return grid_; }

  // The agents' continuous positions, agent i at (xs()[i], ys()[i]); the
  // owning model moves them and then calls moved().
  std::vector<double>& xs() noexcept { return x_; }
  std::vector<double>& ys() noexcept { return y_; }
  Point2D position(std::uint32_t agent) const {
    return {x_.at(agent), y_.at(agent)};
  }
  void place(std::uint32_t agent, const Point2D& p) {
    x_.at(agent) = p.x;
    y_.at(agent) = p.y;
  }

  // An agent's connectivity cell, derived from its position, so it is
  // current even while the snapshot is stale.
  CellId cell(std::uint32_t agent) const {
    return grid_.nearest(position(agent));
  }

  // Marks the snapshot stale: the positions changed since the last read.
  void moved() noexcept { stale_ = true; }

  const Snapshot& snapshot() const {
    if (stale_) materialize();
    return snapshot_;
  }

  // Bytes held by the build's sort: linear in the agents, plus one word
  // per bucket of a multi-point grid with many more buckets than agents.
  std::size_t sort_scratch_bytes() const noexcept {
    return colocation_.scratch_bytes();
  }

 private:
  void materialize() const {
    if (axis_bucket_.empty()) {
      colocation_.build(snapshot_, grid_.num_points(), [this](std::uint32_t i) {
        return grid_.nearest({x_[i], y_[i]});
      });
    } else {
      build_buckets();
    }
    stale_ = false;
  }

  void build_buckets() const {
    const std::uint32_t bps = buckets_per_side_;
    const double spacing = grid_.spacing();
    const double r2 = radius_ * radius_;
    Point2D* const points = grid_points_.data();
    const auto bucket_of = [&](std::uint32_t i) {
      const std::uint32_t row = grid_.nearest_line(y_[i]);
      const std::uint32_t col = grid_.nearest_line(x_[i]);
      points[i] = {static_cast<double>(col) * spacing,
                   static_cast<double>(row) * spacing};
      return axis_bucket_[row] * bps + axis_bucket_[col];
    };
    const auto forward = [bps](std::uint32_t b, auto&& visit) {
      const std::uint32_t col = b % bps;
      if (col + 1 < bps) visit(b + 1);
      if (b / bps + 1 == bps) return;
      if (col > 0) visit(b + bps - 1);
      visit(b + bps);
      if (col + 1 < bps) visit(b + bps + 1);
    };
    const auto within_radius = [points, r2](std::uint32_t a, std::uint32_t b) {
      return squared_distance(points[a], points[b]) <= r2;
    };
    colocation_.build(snapshot_, std::size_t{bps} * bps, bucket_of, forward,
                      within_radius);
  }

  SquareGrid grid_;
  double radius_;
  std::vector<double> x_, y_;
  // Multi-point grids only (empty on one-point ones): the bucket of each
  // grid line, per axis, and each agent's grid point, written by the
  // build.
  std::uint32_t buckets_per_side_ = 0;
  std::vector<std::uint32_t> axis_bucket_;
  mutable std::vector<Point2D> grid_points_;
  mutable ColocationBuilder colocation_;
  mutable Snapshot snapshot_;
  mutable bool stale_ = true;
};

}  // namespace megflood
