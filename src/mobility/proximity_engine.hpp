#pragma once

// Snapshot maintenance for the geometric mobility model (RandomTripModel,
// the random waypoint among its policies), built lazily.  The model moves
// the agents in positions() and calls moved(); nothing else happens until
// someone reads snapshot(), so steps nobody reads (a trial's warmup) cost
// only the kinematics.  The first read after a move snaps every agent to
// its grid point and then, on a multi-point grid, refreshes the
// NeighborIndex and collects the radius pairs into the snapshot's key
// array (the CSR is built lazily).  On a one-point grid (see
// NeighborIndex) r < spacing, so the snapshot is a disjoint union of
// cliques, one per occupied point, which ColocationBuilder
// (mobility/colocation.hpp) writes in the NeighborIndex order, CSR
// included, with the snap fused into its counting sort.
//
// Skipping reads is invisible: both builds read only the current cells
// (NeighborIndex::refresh() leaves the state rebuild() makes), so a
// snapshot is a pure function of the current positions, and the engine
// draws no randomness.
//
// snapshot() is const but does the deferred work on its first call after
// moved(); the deferred state is mutable, like Snapshot's lazy CSR.  So
// concurrent first reads race (the DynamicGraph::snapshot() contract).

#include <cstdint>
#include <optional>
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
        positions_(num_agents),
        snapshot_(num_agents) {
    if (!NeighborIndex::one_point_buckets(grid, radius)) {
      index_.emplace(grid, radius);
      cells_.resize(num_agents);
    }
  }

  const SquareGrid& grid() const noexcept { return grid_; }

  // The agents' continuous positions; the owning model moves them and
  // then calls moved().
  std::vector<Point2D>& positions() noexcept { return positions_; }
  Point2D position(std::uint32_t agent) const { return positions_.at(agent); }

  // An agent's connectivity cell, derived from its position, so it is
  // current even while the snapshot is stale.
  CellId cell(std::uint32_t agent) const {
    return grid_.nearest(positions_.at(agent));
  }

  // Marks the snapshot stale: positions() changed since the last read.
  void moved() noexcept { stale_ = true; }

  const Snapshot& snapshot() const {
    if (stale_) materialize();
    return snapshot_;
  }

  // Bytes held by the one-point build's sort: linear in the agents on a
  // grid with many more points than agents.
  std::size_t sort_scratch_bytes() const noexcept {
    return colocation_.scratch_bytes();
  }

 private:
  void materialize() const {
    if (index_) {
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        cells_[i] = grid_.nearest(positions_[i]);
      }
      index_->refresh(cells_);
      index_->collect_pairs(snapshot_.key_buffer());
    } else {
      colocation_.build(snapshot_, grid_.num_points(), [this](std::uint32_t i) {
        return grid_.nearest(positions_[i]);
      });
    }
    stale_ = false;
  }

  SquareGrid grid_;
  std::vector<Point2D> positions_;
  // Deferred state, brought up to date by the first snapshot() read:
  // index_ and cells_ serve the multi-point regime, colocation_ the
  // one-point one.
  mutable std::optional<NeighborIndex> index_;
  mutable std::vector<CellId> cells_;
  mutable ColocationBuilder colocation_;
  mutable Snapshot snapshot_;
  mutable bool stale_ = true;
};

}  // namespace megflood
