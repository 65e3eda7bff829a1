#pragma once

// Shared snapshot maintenance for the geometric mobility models
// (random waypoint, random trip), built lazily.  The owning model moves
// the agents in positions() and calls moved(); nothing else happens until
// someone reads snapshot(), so steps nobody reads (a trial's warmup) cost
// only the kinematics.  The first read after a move snaps every agent to
// its grid point and then, on a multi-point grid, refreshes the
// NeighborIndex, collects the radius pairs and swaps them in (the CSR is
// built lazily).  On a one-point grid (see NeighborIndex) r < spacing, so
// the snapshot is a disjoint union of cliques, one per occupied point: a
// counting sort of the agents by point, fused with the snap, writes the
// pairs in the NeighborIndex order (points row-major, pairs ascending)
// and the CSR the lazy build would make from them (each row the other
// members of the agent's point, ascending), with no bucket storage.
//
// Skipping reads is invisible: both builds read only the current cells
// (NeighborIndex::refresh() leaves the state rebuild() makes), so a
// snapshot is a pure function of the current positions, and the engine
// draws no randomness.  Keeping the protocol in one place guarantees the
// two models can never diverge on it.
//
// snapshot() is const but does the deferred work on its first call after
// moved(); the deferred state is mutable, like Snapshot's lazy CSR.  So
// concurrent first reads race (the DynamicGraph::snapshot() contract).

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
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
        cells_(num_agents),
        snapshot_(num_agents) {
    if (!NeighborIndex::one_point_buckets(grid, radius)) {
      index_.emplace(grid, radius);
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

 private:
  void materialize() const {
    if (index_) {
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        cells_[i] = grid_.nearest(positions_[i]);
      }
      index_->refresh(cells_);
      index_->collect_pairs(pair_scratch_);
      snapshot_.swap_edges(pair_scratch_);
    } else {
      build_cliques();
    }
    stale_ = false;
  }

  // Pair runs and CSR rows are written in whole blocks that may run past
  // their end, onto slots written later or spare slots dropped at the
  // end: a loop over each run's own length mispredicts once per agent.
  static constexpr std::uint32_t kPairBlock = 8;
  static constexpr std::uint32_t kRowBlock = 16;

  static void copy_blocks(NodeId* dst, const NodeId* src, std::size_t count) {
    const NodeId* const last = src + count;
    do {
      std::memcpy(dst, src, sizeof(NodeId) * kRowBlock);
      dst += kRowBlock;
      src += kRowBlock;
    } while (src < last);
  }

  void build_cliques() const {
    const auto n = static_cast<std::uint32_t>(positions_.size());
    // Counting sort, fused with the snap.  Counts land two slots up and
    // the fill advances point c's cursor at c + 1, so then point c's
    // members, ascending, are mem[end[c] .. end[c + 1]), i at slot_[i].
    point_end_.assign(grid_.num_points() + 2, 0u);
    members_.resize(std::size_t{n} + kRowBlock);  // block reads run past n
    slot_.resize(n);
    std::uint32_t* const end = point_end_.data();
    for (std::uint32_t i = 0; i < n; ++i) {
      cells_[i] = grid_.nearest(positions_[i]);
      ++end[cells_[i] + 2];
    }
    std::uint64_t directed = 0;  // sum of k (k - 1) over the points
    for (std::size_t p = 2; p < point_end_.size(); ++p) {
      directed += std::uint64_t{end[p]} * (end[p] - std::uint64_t{1});
      end[p] += end[p - 1];
    }
    if (directed > (std::numeric_limits<std::uint32_t>::max)()) {
      throw std::length_error("Snapshot: edge count overflows CSR offsets");
    }
    std::uint32_t* const mem = members_.data();
    for (std::uint32_t i = 0; i < n; ++i) {
      slot_[i] = end[cells_[i] + 1]++;
      mem[slot_[i]] = i;
    }
    // The pairs: each member with every later member of its point.
    pair_scratch_.resize(directed / 2 + kPairBlock);
    std::pair<NodeId, NodeId>* pair = pair_scratch_.data();
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t a = mem[j], *src = mem + j + 1;
      const std::uint32_t* const last = mem + end[cells_[a] + 1];
      std::pair<NodeId, NodeId>* dst = pair;
      pair += last - src;
      do {
        std::uint32_t block[kPairBlock];  // local: no store aliases it
        std::memcpy(block, src, sizeof block);
        for (std::uint32_t b = 0; b < kPairBlock; ++b) dst[b] = {a, block[b]};
        src += kPairBlock;
        dst += kPairBlock;
      } while (src < last);
    }
    pair_scratch_.resize(directed / 2);
    // The CSR: row i is i's point with slot self cut out.
    offset_scratch_.resize(std::size_t{n} + 1);
    neighbor_scratch_.resize(directed + kRowBlock);
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t* const point = mem + end[cells_[i]];
      const std::uint32_t self = slot_[i] - end[cells_[i]];
      const std::uint32_t degree = end[cells_[i] + 1] - end[cells_[i]] - 1;
      NodeId* const row = neighbor_scratch_.data() + at;
      copy_blocks(row, point, self);
      copy_blocks(row + self, point + self + 1, degree - self);
      offset_scratch_[i] = at;
      at += degree;
    }
    offset_scratch_[n] = at;
    neighbor_scratch_.resize(directed);
    snapshot_.swap_edges_and_csr(pair_scratch_, offset_scratch_,
                                 neighbor_scratch_);
  }

  SquareGrid grid_;
  std::vector<Point2D> positions_;
  // Deferred state, brought up to date by the first snapshot() read.
  // index_ serves the multi-point regime, point_end_/members_/slot_ the
  // one-point one.
  mutable std::optional<NeighborIndex> index_;
  mutable std::vector<std::uint32_t> point_end_;  // num_points() + 2
  mutable std::vector<std::uint32_t> members_;
  mutable std::vector<std::uint32_t> slot_;
  mutable std::vector<CellId> cells_;
  mutable std::vector<std::pair<NodeId, NodeId>> pair_scratch_;
  mutable std::vector<std::uint32_t> offset_scratch_;
  mutable std::vector<NodeId> neighbor_scratch_;
  mutable Snapshot snapshot_;
  mutable bool stale_ = true;
};

}  // namespace megflood
