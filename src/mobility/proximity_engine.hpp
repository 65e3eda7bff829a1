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
// cliques, one per occupied point: a counting sort of the agents by point
// writes the pairs in the NeighborIndex order (points row-major, pairs
// ascending) and the CSR the lazy build would make from them (each row
// the other members of the agent's point, ascending), with no bucket
// storage.  The counting sort runs over the grid's points, fused with
// the snap, while they are few next to the agents; on a finer grid it
// runs over the ranks of the occupied points, which a radix sort of
// (point, agent) finds, so a read costs O(n) whatever the resolution.
//
// Skipping reads is invisible: both builds read only the current cells
// (NeighborIndex::refresh() leaves the state rebuild() makes), so a
// snapshot is a pure function of the current positions, and the engine
// draws no randomness.
//
// snapshot() is const but does the deferred work on its first call after
// moved(); the deferred state is mutable, like Snapshot's lazy CSR.  So
// concurrent first reads race (the DynamicGraph::snapshot() contract).

#include <array>
#include <bit>
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

  // Bytes held by the one-point build's sort: linear in the agents on a
  // grid with many more points than agents.
  std::size_t sort_scratch_bytes() const noexcept {
    return sizeof(std::uint32_t) *
               (point_end_.capacity() + members_.capacity() +
                slot_.capacity() + cells_.capacity() + rank_.capacity()) +
           sizeof(std::uint64_t) * (sorted_.capacity() + sort_scratch_.capacity());
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

  // A grid with more points than this many per agent sorts by the ranks
  // of the occupied points instead of scanning all of its points.
  static constexpr std::size_t kPointsPerAgent = 4;

  void build_cliques() const {
    const auto n = static_cast<std::uint32_t>(positions_.size());
    // Counting sort of the agents by group: each agent's point, or on a
    // fine grid that point's rank among the occupied ones, which keeps
    // the point order.  Counts land two slots up and the fill advances
    // group c's cursor at c + 1, so then group c's members, ascending,
    // are mem[end[c] .. end[c + 1]), i at slot_[i].
    const std::uint32_t* group = cells_.data();
    if (grid_.num_points() <= kPointsPerAgent * std::size_t{n}) {
      point_end_.assign(grid_.num_points() + 2, 0u);
      std::uint32_t* const end = point_end_.data();
      for (std::uint32_t i = 0; i < n; ++i) {
        cells_[i] = grid_.nearest(positions_[i]);
        ++end[cells_[i] + 2];
      }
    } else {
      for (std::uint32_t i = 0; i < n; ++i) {
        cells_[i] = grid_.nearest(positions_[i]);
      }
      point_end_.assign(std::size_t{rank_points(n)} + 2, 0u);
      group = rank_.data();
      std::uint32_t* const end = point_end_.data();
      for (std::uint32_t i = 0; i < n; ++i) ++end[group[i] + 2];
    }
    std::uint32_t* const end = point_end_.data();
    members_.resize(std::size_t{n} + kRowBlock);  // block reads run past n
    slot_.resize(n);
    std::uint64_t directed = 0;  // sum of k (k - 1) over the groups
    for (std::size_t p = 2; p < point_end_.size(); ++p) {
      directed += std::uint64_t{end[p]} * (end[p] - std::uint64_t{1});
      end[p] += end[p - 1];
    }
    if (directed > (std::numeric_limits<std::uint32_t>::max)()) {
      throw std::length_error("Snapshot: edge count overflows CSR offsets");
    }
    std::uint32_t* const mem = members_.data();
    for (std::uint32_t i = 0; i < n; ++i) {
      slot_[i] = end[group[i] + 1]++;
      mem[slot_[i]] = i;
    }
    // The pairs, straight into the snapshot's key array: each member with
    // every later member of its group.
    std::vector<std::uint64_t>& keys = snapshot_.key_buffer();
    keys.resize(directed / 2 + kPairBlock);
    std::uint64_t* key = keys.data();
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t a = mem[j], *src = mem + j + 1;
      const std::uint32_t* const last = mem + end[group[a] + 1];
      const std::uint64_t row = pack_pair(a, 0);
      std::uint64_t* dst = key;
      key += last - src;
      do {
        std::uint32_t block[kPairBlock];  // local: no store aliases it
        std::memcpy(block, src, sizeof block);
        for (std::uint32_t b = 0; b < kPairBlock; ++b) dst[b] = row | block[b];
        src += kPairBlock;
        dst += kPairBlock;
      } while (src < last);
    }
    keys.resize(directed / 2);
    // The CSR: row i is i's group with slot self cut out.
    offset_scratch_.resize(std::size_t{n} + 1);
    neighbor_scratch_.resize(directed + kRowBlock);
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t* const point = mem + end[group[i]];
      const std::uint32_t self = slot_[i] - end[group[i]];
      const std::uint32_t degree = end[group[i] + 1] - end[group[i]] - 1;
      NodeId* const row = neighbor_scratch_.data() + at;
      copy_blocks(row, point, self);
      copy_blocks(row + self, point + self + 1, degree - self);
      offset_scratch_[i] = at;
      at += degree;
    }
    offset_scratch_[n] = at;
    neighbor_scratch_.resize(directed);
    snapshot_.adopt_csr(offset_scratch_, neighbor_scratch_);
  }

  // Ranks the occupied points from cells_: rank_[i] is the rank of agent
  // i's point among the occupied points, ascending, and the count of
  // those points is returned.  A stable LSD radix sort of (point, agent)
  // by point, one pass per byte a point id can have, so it costs O(n) a
  // pass and keeps nothing per point.
  std::uint32_t rank_points(std::uint32_t n) const {
    sorted_.resize(n);
    sort_scratch_.resize(n);
    rank_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) sorted_[i] = pack_pair(cells_[i], i);
    const auto bits = static_cast<unsigned>(
        std::bit_width(std::uint64_t{grid_.num_points()} - 1));
    for (unsigned shift = 32; shift < 32 + bits; shift += 8) {
      std::array<std::uint32_t, 257> start{};
      for (const std::uint64_t x : sorted_) ++start[((x >> shift) & 0xff) + 1];
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      for (const std::uint64_t x : sorted_) {
        sort_scratch_[start[(x >> shift) & 0xff]++] = x;
      }
      sorted_.swap(sort_scratch_);
    }
    if (n == 0) return 0;
    std::uint32_t rank = 0;
    std::uint32_t previous = pair_key_i(sorted_[0]);
    for (const std::uint64_t x : sorted_) {
      rank += pair_key_i(x) != previous;
      previous = pair_key_i(x);
      rank_[pair_key_j(x)] = rank;
    }
    return rank + 1;
  }

  SquareGrid grid_;
  std::vector<Point2D> positions_;
  // Deferred state, brought up to date by the first snapshot() read.
  // index_ serves the multi-point regime, point_end_/members_/slot_ the
  // one-point one (point_end_ holds a group's end, num_points() + 2 or
  // occupied points + 2 entries).
  mutable std::optional<NeighborIndex> index_;
  mutable std::vector<std::uint32_t> point_end_;
  mutable std::vector<std::uint32_t> members_;
  mutable std::vector<std::uint32_t> slot_;
  mutable std::vector<CellId> cells_;
  // The fine-grid ranking: point ranks, and the radix sort's two buffers.
  mutable std::vector<std::uint32_t> rank_;
  mutable std::vector<std::uint64_t> sorted_;
  mutable std::vector<std::uint64_t> sort_scratch_;
  mutable std::vector<std::uint32_t> offset_scratch_;
  mutable std::vector<NodeId> neighbor_scratch_;
  mutable Snapshot snapshot_;
  mutable bool stale_ = true;
};

}  // namespace megflood
