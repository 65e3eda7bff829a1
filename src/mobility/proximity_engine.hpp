#pragma once

// Shared snapshot maintenance for the geometric mobility models
// (random waypoint, random trip), built lazily.  The owning model moves
// the agents in positions() and calls moved(); nothing else happens until
// someone reads snapshot().  The first read after a move snaps every
// agent to its grid cell, refreshes the NeighborIndex, collects the
// radius pairs branchlessly and swaps them into the Snapshot.  Steps
// nobody reads (a trial's warmup) therefore cost only the kinematics.
//
// Skipping reads is invisible: NeighborIndex::refresh() leaves the index
// in the state rebuild() produces from the same cells, so a snapshot is a
// pure function of the current positions — the same edges in the same
// order whichever earlier states were never built — and the engine draws
// no randomness.  Keeping the protocol in one place guarantees the two
// models can never diverge on it.
//
// snapshot() is const but does the deferred work on its first call after
// moved(); the deferred state is mutable, like Snapshot's lazy CSR.  So
// concurrent first reads race (the DynamicGraph::snapshot() contract).

#include <cstdint>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"

namespace megflood {

class ProximitySnapshotEngine {
 public:
  ProximitySnapshotEngine(const SquareGrid& grid, double radius,
                          std::size_t num_agents)
      : grid_(grid),
        positions_(num_agents),
        index_(grid, radius),
        cells_(num_agents),
        snapshot_(num_agents) {}

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

 private:
  void materialize() const {
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      cells_[i] = grid_.nearest(positions_[i]);
    }
    index_.refresh(cells_);
    index_.collect_pairs(pair_scratch_);
    snapshot_.swap_edges(pair_scratch_);
    stale_ = false;
  }

  SquareGrid grid_;
  std::vector<Point2D> positions_;
  // Deferred state, brought up to date by the first snapshot() read.
  mutable NeighborIndex index_;
  mutable std::vector<CellId> cells_;
  mutable std::vector<std::pair<NodeId, NodeId>> pair_scratch_;
  mutable Snapshot snapshot_;
  mutable bool stale_ = true;
};

}  // namespace megflood
