#pragma once

// Discretization of the continuous square mobility region: the paper
// (Section 4.1) approximates the side-L square of R^2 with an m x m grid
// Q of regularly spaced points.  The random trip model (the random
// waypoint among its policies) runs over this grid; footnote 3
// guarantees the flooding bound is insensitive to the resolution m,
// which experiment E5 verifies by sweeping m.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "meg/pair_index.hpp"

namespace megflood {

using CellId = std::uint32_t;

class SquareGrid {
 public:
  // m x m points regularly spaced over [0, L] x [0, L]; m >= 2.
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
    const double top = static_cast<double>(m_ - 1);
    return static_cast<CellId>(
        static_cast<std::size_t>(snap(p.y * inv_spacing_, top)) * m_ +
        snap(p.x * inv_spacing_, top));
  }

  // All grid points within Euclidean distance `radius` of point `id`
  // (excluding `id` itself).
  std::vector<CellId> disc(CellId id, double radius) const;

  // Whether the full Euclidean disc D(position(id), radius) fits inside
  // the square — i.e. position(id) lies in the eroded region B_r used by
  // Corollary 4's condition (b).
  bool disc_inside(CellId id, double radius) const;

  // Number of grid points whose disc of `radius` fits inside the square.
  std::size_t interior_count(double radius) const;

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

// Bucketed neighbor index for radius queries over a dynamic population of
// points on a SquareGrid; used by the mobility connection maps where the
// naive all-pairs scan would dominate the simulation.
//
// Engine layout: the hot per-node derivations cell -> (row, col) ->
// coordinates/bucket are pure arithmetic — the hardware divide is
// replaced by exact round-up magic division (Hacker's Delight §10-9, one
// 64x64 multiply) and the bucket scaling bx = col * bps / (m - 1) is done
// in exact integer arithmetic, so the pair loop never touches SquareGrid
// and no per-cell tables are needed (an m x m table would outgrow L2 at
// paper resolutions and turn every lookup into a cache miss).  Bucket
// membership is a CSR-style flat array (one `entries_` buffer sliced by
// per-bucket offsets, built by a counting pass + fill pass, capacity
// reused across rebuilds — the same trick as core/snapshot.hpp) with a
// few slots of slack per bucket so that update() can move single nodes
// between buckets in place; a parallel per-entry coordinate array keeps
// the distance loop streaming contiguous memory.  Members are kept
// sorted by node id within each bucket, which makes the for_each_pair()
// emission order a pure function of the membership sets: incremental
// updates are bit-for-bit indistinguishable from a full rebuild.
//
// The one-point regime: the bucket map puts at most one grid point in
// each bucket exactly when bps = floor(L / r) >= m (m columns need m
// buckets; at bps >= m each column step moves the bucket by bps / (m - 1)
// > 1, clamp included).  Then r <= L / m < L / (m - 1) = spacing, so no
// pair spans two points: a snapshot is a disjoint union of cliques, which
// ProximitySnapshotEngine builds without this index.  The random waypoint
// campaign at L = 64, m = 32, r = 1 (spacing 2.06) runs in this regime;
// finer grids (L = 64, m = 256) do not.
class NeighborIndex {
 public:
  NeighborIndex(const SquareGrid& grid, double radius);

  // Rebuild from scratch: positions[i] is the grid point of node i.
  // Counting pass + fill pass; all buffers reuse capacity.
  void rebuild(const std::vector<CellId>& positions);

  // Incremental update: node i moved to grid point `new_cell`.  O(1) when
  // the node stays in its bucket (the common case at paper speeds, where
  // agents move far less than a bucket width per round); otherwise a
  // sorted remove + insert over two small buckets.  Requires a prior
  // rebuild() covering `node`.  The resulting state is identical to a
  // full rebuild from the updated position vector.
  void update(std::uint32_t node, CellId new_cell);

  // Per-round entry point for the mobility models: diffs `positions`
  // against the current per-node cells and routes through update() for
  // each change — unless so many nodes changed bucket that a batch
  // counting-pass rebuild is cheaper, in which case it falls back to
  // rebuild().  Either path yields the identical index state, so the
  // choice is invisible to for_each_pair()/neighbors_of(), and refresh()
  // accepts any prior state: an index never built, or built over a
  // different node count, is rebuilt.
  void refresh(const std::vector<CellId>& positions);

  // All nodes j != i with dist(pos_j, pos_i) <= radius, given the
  // positions of the last rebuild()/update()s.
  std::vector<std::uint32_t> neighbors_of(std::uint32_t node) const;

  // The pair scan: replaces `out` with every within-radius pair (a, b)
  // as the packed key (a << 32) | b (meg/pair_index.hpp), in the
  // canonical emission order (buckets row-major; within-bucket pairs,
  // then the E/SW/S/SE forward half-neighborhood; members ascending by
  // node id).  Multi-point snapshots are built through this, straight
  // into Snapshot::key_buffer(): the loop is branchless (unconditional
  // store + predicated cursor) and carries no throwing callee — a
  // visitor that can throw costs ~2x on the whole scan.
  void collect_pairs(std::vector<std::uint64_t>& out) const;

  // Visit each unordered pair (a, b) within radius exactly once, in
  // collect_pairs() order.  Convenience wrapper over collect_pairs — one
  // traversal implementation, so the two APIs can never drift out of
  // emission-order lockstep.  Allocates a temporary key buffer; hot
  // paths should call collect_pairs with a reused buffer instead.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    std::vector<std::uint64_t> keys;
    collect_pairs(keys);
    for (const std::uint64_t key : keys) {
      fn(pair_key_i(key), pair_key_j(key));
    }
  }

  double radius() const noexcept { return radius_; }
  // Whether each bucket would hold at most one grid point (see above);
  // allocates nothing, throws std::invalid_argument unless radius > 0.
  static bool one_point_buckets(const SquareGrid& grid, double radius);
  std::size_t num_nodes() const noexcept { return node_cell_.size(); }
  CellId cell_of(std::uint32_t node) const { return node_cell_.at(node); }

 private:
  // Exact unsigned division by a fixed 32-bit divisor via one multiply:
  // round-up magic (m = floor(2^s / d) + 1 with s = 32 + ceil(lg d)) is
  // exact for every 32-bit dividend.
  struct MagicDiv {
    std::uint64_t magic = 0;
    unsigned shift = 0;
  };
  static MagicDiv make_magic(std::uint32_t divisor) noexcept;
  static std::uint32_t magic_div(std::uint32_t n, MagicDiv d) noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(n) * d.magic) >> d.shift);
  }

  std::uint32_t cell_row(CellId cell) const noexcept {
    return magic_div(cell, by_m_);
  }
  Point2D cell_point(std::uint32_t row, std::uint32_t col) const noexcept {
    return {static_cast<double>(col) * spacing_,
            static_cast<double>(row) * spacing_};
  }
  // Bucket of grid point (row, col) in exact integer arithmetic:
  // bx = floor(col * bps / (m - 1)) — since col * spacing = col * L/(m-1)
  // and the bucket width is L / bps, this is the exact rational value of
  // floor(x / bucket_width), with none of the float-boundary ambiguity.
  // Two points within the radius differ by <= 1 in each bucket axis
  // because |col_a - col_b| * bps <= (r / spacing) * bps <= (m - 1).
  std::uint32_t cell_bucket(std::uint32_t row, std::uint32_t col)
      const noexcept {
    const auto bps = static_cast<std::uint32_t>(buckets_per_side_);
    std::uint32_t bx, by;
    if (bucket_magic_ok_) {
      bx = magic_div(static_cast<std::uint32_t>(
                         static_cast<std::uint64_t>(col) * bps),
                     by_m1_);
      by = magic_div(static_cast<std::uint32_t>(
                         static_cast<std::uint64_t>(row) * bps),
                     by_m1_);
    } else {
      bx = static_cast<std::uint32_t>(static_cast<std::uint64_t>(col) * bps /
                                      (m_ - 1));
      by = static_cast<std::uint32_t>(static_cast<std::uint64_t>(row) * bps /
                                      (m_ - 1));
    }
    bx = std::min(bx, bps - 1);
    by = std::min(by, bps - 1);
    return by * bps + bx;
  }
  std::uint32_t cell_bucket(CellId cell) const noexcept {
    const std::uint32_t row = cell_row(cell);
    return cell_bucket(row, cell - row * m_);
  }

  // Re-derive the CSR slices from node_bucket_ (counting pass + fill);
  // shared by rebuild() and the bucket-overflow path of update().
  void rebuild_entries();

  double radius_;
  std::size_t buckets_per_side_;
  double spacing_;
  std::uint32_t m_;  // grid resolution (cells are row * m + col)
  MagicDiv by_m_;    // divide by m
  MagicDiv by_m1_;   // divide by m - 1 (bucket scaling)
  bool bucket_magic_ok_ = false;  // col * bps fits 32 bits

  // Per-node state (cell, cached coordinates, owning bucket, and the
  // node's slot in entries_ — kept exact so a same-bucket position change
  // refreshes the cached coordinates in O(1)).
  std::vector<CellId> node_cell_;
  std::vector<Point2D> node_point_;
  std::vector<std::uint32_t> node_bucket_;
  std::vector<std::uint32_t> node_slot_;

  // CSR-with-slack bucket storage: bucket b's members are the sorted node
  // ids entries_[offset_[b] .. offset_[b] + size_[b]); the slice owns
  // capacity up to offset_[b + 1].  entry_point_ mirrors entries_ with
  // each member's coordinates, so the pair scan streams contiguous points
  // instead of gathering through node_point_.
  std::vector<std::uint32_t> entries_;
  std::vector<Point2D> entry_point_;
  std::vector<std::uint32_t> offset_;  // buckets + 1 entries
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> counts_;  // counting-pass scratch
};

}  // namespace megflood
