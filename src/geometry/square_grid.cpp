#include "geometry/square_grid.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace megflood {

namespace {

// Slack slots appended to every bucket slice at (re)build time, so a
// handful of arrivals can be absorbed in place before the next counting
// pass.  Memory cost is kBucketSlack * buckets, bounded by the grid
// geometry; the value only affects how often update() recompacts, never
// the results.
constexpr std::uint32_t kBucketSlack = 4;

}  // namespace

SquareGrid::SquareGrid(std::size_t m, double side_length)
    : m_(m), length_(side_length) {
  if (m < 2) throw std::invalid_argument("SquareGrid: resolution m must be >= 2");
  if (side_length <= 0.0) {
    throw std::invalid_argument("SquareGrid: side length must be positive");
  }
  spacing_ = length_ / static_cast<double>(m_ - 1);
  inv_spacing_ = 1.0 / spacing_;
}

CellId SquareGrid::index(std::size_t row, std::size_t col) const {
  assert(row < m_ && col < m_);
  return static_cast<CellId>(row * m_ + col);
}

Point2D SquareGrid::position(CellId id) const {
  assert(id < num_points());
  return {static_cast<double>(col(id)) * spacing_,
          static_cast<double>(row(id)) * spacing_};
}

std::vector<CellId> SquareGrid::disc(CellId id, double radius) const {
  std::vector<CellId> result;
  if (radius < 0.0) return result;
  const Point2D center = position(id);
  const auto span = static_cast<std::ptrdiff_t>(std::ceil(radius / spacing_));
  const auto r0 = static_cast<std::ptrdiff_t>(row(id));
  const auto c0 = static_cast<std::ptrdiff_t>(col(id));
  const auto mm = static_cast<std::ptrdiff_t>(m_);
  const double r2 = radius * radius;
  for (std::ptrdiff_t dr = -span; dr <= span; ++dr) {
    for (std::ptrdiff_t dc = -span; dc <= span; ++dc) {
      if (dr == 0 && dc == 0) continue;
      const std::ptrdiff_t rr = r0 + dr, cc = c0 + dc;
      if (rr < 0 || rr >= mm || cc < 0 || cc >= mm) continue;
      const CellId other = index(static_cast<std::size_t>(rr),
                                 static_cast<std::size_t>(cc));
      if (squared_distance(center, position(other)) <= r2) {
        result.push_back(other);
      }
    }
  }
  return result;
}

bool SquareGrid::disc_inside(CellId id, double radius) const {
  const Point2D p = position(id);
  return p.x - radius >= 0.0 && p.x + radius <= length_ &&
         p.y - radius >= 0.0 && p.y + radius <= length_;
}

std::size_t SquareGrid::interior_count(double radius) const {
  std::size_t count = 0;
  for (CellId id = 0; id < num_points(); ++id) {
    if (disc_inside(id, radius)) ++count;
  }
  return count;
}

NeighborIndex::MagicDiv NeighborIndex::make_magic(
    std::uint32_t divisor) noexcept {
  // Round-up magic (Hacker's Delight §10-9): with s = 32 + ceil(lg d) and
  // magic = floor(2^s / d) + 1, (n * magic) >> s == n / d exactly for
  // every 32-bit n (magic * d lands in (2^s, 2^s + 2^ceil(lg d)]).
  MagicDiv m;
  m.shift = 32 + static_cast<unsigned>(std::bit_width(divisor - 1));
  m.magic = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(1) << m.shift) / divisor) +
            1;
  return m;
}

bool NeighborIndex::one_point_buckets(const SquareGrid& grid, double radius) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("NeighborIndex: radius must be positive");
  }
  // floor(L / r) >= m in floating point: no bucket count is formed, so a
  // tiny radius cannot overflow it.
  return std::floor(grid.side_length() / radius) >=
         static_cast<double>(grid.resolution());
}

NeighborIndex::NeighborIndex(const SquareGrid& grid, double radius)
    : radius_(radius) {
  if (radius <= 0.0) {
    throw std::invalid_argument("NeighborIndex: radius must be positive");
  }
  // Bucket width (side / buckets_per_side_) >= radius, so all neighbors
  // of a point lie in the 3x3 bucket neighborhood.
  buckets_per_side_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(grid.side_length() / radius)));
  const std::size_t buckets = buckets_per_side_ * buckets_per_side_;
  offset_.resize(buckets + 1, 0);
  size_.resize(buckets, 0);
  counts_.resize(buckets, 0);

  spacing_ = grid.spacing();
  m_ = static_cast<std::uint32_t>(grid.resolution());
  by_m_ = make_magic(m_);
  by_m1_ = make_magic(m_ - 1);
  bucket_magic_ok_ =
      static_cast<std::uint64_t>(m_ - 1) * buckets_per_side_ <
      (std::uint64_t{1} << 32);
  assert(cell_row(static_cast<CellId>(grid.num_points() - 1)) == m_ - 1);
  assert(cell_row(static_cast<CellId>(m_)) == 1);
  assert(cell_row(static_cast<CellId>(m_ - 1)) == 0);
}

void NeighborIndex::rebuild_entries() {
  const std::size_t buckets = size_.size();
  std::fill(counts_.begin(), counts_.end(), 0u);
  for (const std::uint32_t b : node_bucket_) ++counts_[b];
  std::uint32_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    offset_[b] = total;
    size_[b] = 0;
    total += counts_[b] + kBucketSlack;
  }
  offset_[buckets] = total;
  if (entries_.size() < total) {
    entries_.resize(total);
    entry_point_.resize(total);
  }
  // Fill in ascending node order, so every bucket slice ends up sorted.
  for (std::uint32_t node = 0; node < node_bucket_.size(); ++node) {
    const std::uint32_t b = node_bucket_[node];
    const std::uint32_t slot = offset_[b] + size_[b]++;
    entries_[slot] = node;
    entry_point_[slot] = node_point_[node];
    node_slot_[node] = slot;
  }
}

void NeighborIndex::rebuild(const std::vector<CellId>& positions) {
  node_cell_ = positions;
  node_point_.resize(positions.size());
  node_bucket_.resize(positions.size());
  node_slot_.resize(positions.size());
  for (std::size_t node = 0; node < positions.size(); ++node) {
    const CellId cell = positions[node];
    const std::uint32_t row = cell_row(cell);
    const std::uint32_t col = cell - row * m_;
    node_point_[node] = cell_point(row, col);
    node_bucket_[node] = cell_bucket(row, col);
  }
  rebuild_entries();
}

void NeighborIndex::update(std::uint32_t node, CellId new_cell) {
  assert(node < node_cell_.size());
  node_cell_[node] = new_cell;
  const std::uint32_t row = cell_row(new_cell);
  const std::uint32_t col = new_cell - row * m_;
  const Point2D point = cell_point(row, col);
  node_point_[node] = point;
  const std::uint32_t to = cell_bucket(row, col);
  const std::uint32_t from = node_bucket_[node];
  if (to == from) {
    // Same bucket: only the cached coordinates change, in place (O(1)
    // via the slot table — the common case at sub-bucket grid spacing).
    entry_point_[node_slot_[node]] = point;
    return;
  }
  node_bucket_[node] = to;
  if (size_[to] == offset_[to + 1] - offset_[to]) {
    // Destination slice has no slack left: recompact everything from the
    // (already updated) node -> bucket map.  Amortized rare — every
    // recompaction hands each bucket kBucketSlack fresh slots.
    rebuild_entries();
    return;
  }
  // Sorted remove from the old slice, sorted insert into the new one;
  // entry_point_ and the slot table shift in lockstep with entries_.
  std::uint32_t* const src = entries_.data() + offset_[from];
  const std::size_t remove_at = node_slot_[node] - offset_[from];
  assert(remove_at < size_[from] && src[remove_at] == node);
  Point2D* const src_pts = entry_point_.data() + offset_[from];
  for (std::size_t k = remove_at + 1; k < size_[from]; ++k) {
    src[k - 1] = src[k];
    src_pts[k - 1] = src_pts[k];
    --node_slot_[src[k - 1]];
  }
  --size_[from];
  std::uint32_t* const dst = entries_.data() + offset_[to];
  std::uint32_t* const dst_end = dst + size_[to];
  std::uint32_t* const ins = std::lower_bound(dst, dst_end, node);
  Point2D* const dst_pts = entry_point_.data() + offset_[to];
  const auto insert_at = static_cast<std::size_t>(ins - dst);
  for (std::size_t k = size_[to]; k > insert_at; --k) {
    dst[k] = dst[k - 1];
    dst_pts[k] = dst_pts[k - 1];
    ++node_slot_[dst[k]];
  }
  dst[insert_at] = node;
  dst_pts[insert_at] = point;
  node_slot_[node] = offset_[to] + static_cast<std::uint32_t>(insert_at);
  ++size_[to];
}

void NeighborIndex::refresh(const std::vector<CellId>& positions) {
  // Nothing to diff against before the first build (or after a change of
  // population size).
  if (positions.size() != node_cell_.size()) {
    rebuild(positions);
    return;
  }
  // Estimate the bucket churn on a strided sample (an exact count would
  // itself pay one bucket derivation per changed node — as much as the
  // work it is trying to avoid).  Above ~1/8 sampled bucket moves the
  // batch counting-pass rebuild is cheaper than per-node sorted edits
  // (and immune to recompaction thrash).  The choice is a pure time
  // trade-off: both paths produce the identical index state.
  const std::size_t n = positions.size();
  const std::size_t stride = std::max<std::size_t>(1, n / 64);
  std::size_t sampled = 0, moved = 0;
  for (std::size_t node = 0; node < n; node += stride) {
    ++sampled;
    const CellId cell = positions[node];
    if (cell != node_cell_[node] && cell_bucket(cell) != node_bucket_[node]) {
      ++moved;
    }
  }
  if (moved * 8 >= sampled) {
    rebuild(positions);
    return;
  }
  for (std::size_t node = 0; node < n; ++node) {
    if (positions[node] != node_cell_[node]) {
      update(static_cast<std::uint32_t>(node), positions[node]);
    }
  }
}

void NeighborIndex::collect_pairs(std::vector<std::uint64_t>& out) const {
  // Same traversal (and therefore the same emission order) as
  // for_each_pair, but with a branchless accept: every candidate pair is
  // stored unconditionally and the cursor advances only on acceptance.
  // The accept pattern changes every round (agents move), so a
  // conditional push costs a mispredict on roughly every third candidate
  // — the predicated store is ~2x faster on the live scan.
  //
  // Two refinements over the PR 4 scalar loop, both order-preserving
  // (tests/test_mobility_incremental.cpp pins snapshots bit-for-bit):
  //  * the candidate compare runs two entries per trip — the predicated
  //    store chains count -> store address serially, and pairing two
  //    independent distance computations per iteration hides half that
  //    latency on rows of length >= 2;
  //  * the coordinate block of the row-below neighbor trio is software-
  //    prefetched at the start of each home bucket.  Buckets {1,-1},
  //    {1,0}, {1,1} are *adjacent slices* of the flat block store, so a
  //    two-line prefetch at their base covers all three — these bps-
  //    strided blocks are the bucket walk's only non-streaming accesses
  //    (the {0,1} neighbor adjoins the home slice).
  const double r2 = radius_ * radius_;
  const auto bps = static_cast<std::ptrdiff_t>(buckets_per_side_);
  const std::uint32_t* const entries = entries_.data();
  const Point2D* const points = entry_point_.data();
  std::uint64_t* buf = out.data();
  std::size_t cap = out.size();
  std::size_t count = 0;
  // `out` is usually the snapshot's own key array, holding the previous
  // round's keys.
  // Grow it only to the slots this candidate block can write: resize()
  // value-initialises every new slot, and the vector's capacity still
  // grows geometrically underneath.
  const auto ensure = [&](std::size_t need) {
    if (count + need > cap) {
      out.resize(count + need);
      buf = out.data();
      cap = out.size();
    }
  };
  for (std::ptrdiff_t br = 0; br < bps; ++br) {
    for (std::ptrdiff_t bc = 0; bc < bps; ++bc) {
      const auto b = static_cast<std::size_t>(br * bps + bc);
      const std::size_t cell_size = size_[b];
      if (cell_size == 0) continue;
#if defined(__GNUC__) || defined(__clang__)
      if (br + 1 < bps) {
        const auto below =
            static_cast<std::size_t>(b + bps - (bc > 0 ? 1 : 0));
        const Point2D* const below_pts = points + offset_[below];
        __builtin_prefetch(below_pts);
        __builtin_prefetch(below_pts + 4);  // 4 Point2D per cache line
        __builtin_prefetch(entries + offset_[below]);
      }
#endif
      const std::uint32_t* const cell = entries + offset_[b];
      const Point2D* const cell_pts = points + offset_[b];
      if (cell_size > 1) {
        ensure(cell_size * (cell_size - 1) / 2);
        for (std::size_t a = 0; a + 1 < cell_size; ++a) {
          const Point2D pa = cell_pts[a];
          const std::uint64_t ida = pack_pair(cell[a], 0);
          std::size_t c = a + 1;
          for (; c + 2 <= cell_size; c += 2) {
            buf[count] = ida | cell[c];
            count += squared_distance(pa, cell_pts[c]) <= r2;
            buf[count] = ida | cell[c + 1];
            count += squared_distance(pa, cell_pts[c + 1]) <= r2;
          }
          if (c < cell_size) {
            buf[count] = ida | cell[c];
            count += squared_distance(pa, cell_pts[c]) <= r2;
          }
        }
      }
      static constexpr std::ptrdiff_t kOffsets[4][2] = {
          {0, 1}, {1, -1}, {1, 0}, {1, 1}};
      for (const auto& off : kOffsets) {
        const std::ptrdiff_t nr = br + off[0], nc = bc + off[1];
        if (nr < 0 || nr >= bps || nc < 0 || nc >= bps) continue;
        const auto nb = static_cast<std::size_t>(nr * bps + nc);
        const std::size_t other_size = size_[nb];
        if (other_size == 0) continue;
        const std::uint32_t* const other = entries + offset_[nb];
        const Point2D* const other_pts = points + offset_[nb];
        ensure(cell_size * other_size);
        for (std::size_t a = 0; a < cell_size; ++a) {
          const Point2D pa = cell_pts[a];
          const std::uint64_t ida = pack_pair(cell[a], 0);
          std::size_t c = 0;
          for (; c + 2 <= other_size; c += 2) {
            buf[count] = ida | other[c];
            count += squared_distance(pa, other_pts[c]) <= r2;
            buf[count] = ida | other[c + 1];
            count += squared_distance(pa, other_pts[c + 1]) <= r2;
          }
          if (c < other_size) {
            buf[count] = ida | other[c];
            count += squared_distance(pa, other_pts[c]) <= r2;
          }
        }
      }
    }
  }
  out.resize(count);
}

std::vector<std::uint32_t> NeighborIndex::neighbors_of(std::uint32_t node) const {
  std::vector<std::uint32_t> result;
  const Point2D p = node_point_.at(node);
  const double r2 = radius_ * radius_;
  const auto bps = static_cast<std::ptrdiff_t>(buckets_per_side_);
  const std::uint32_t home = node_bucket_[node];
  const auto hr = static_cast<std::ptrdiff_t>(home / buckets_per_side_);
  const auto hc = static_cast<std::ptrdiff_t>(home % buckets_per_side_);
  for (std::ptrdiff_t dr = -1; dr <= 1; ++dr) {
    for (std::ptrdiff_t dc = -1; dc <= 1; ++dc) {
      const std::ptrdiff_t r = hr + dr, c = hc + dc;
      if (r < 0 || r >= bps || c < 0 || c >= bps) continue;
      const auto b = static_cast<std::size_t>(r * bps + c);
      const std::uint32_t* const cell = entries_.data() + offset_[b];
      for (std::size_t k = 0; k < size_[b]; ++k) {
        const std::uint32_t other = cell[k];
        if (other == node) continue;
        if (squared_distance(p, node_point_[other]) <= r2) {
          result.push_back(other);
        }
      }
    }
  }
  return result;
}

}  // namespace megflood
