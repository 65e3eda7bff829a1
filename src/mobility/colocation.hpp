#pragma once

// The one snapshot build of every mobility model whose agents sit on
// points: agents at one point are connected, and so are the agents at a
// point p and at each forward neighbour q > p the model lists for p.
// A model may also pass a filter, accept(a, b), that keeps only some of
// those candidate pairs (the random trip on a multi-point grid, whose
// "point" is a bucket of grid points, keeps the pairs within the radius).
// Order contract: the keys are what add_edge makes for the occupied
// points ascending, at each point p its clique pairs (a, b), a < b,
// ascending, then for each forward neighbour q, in the model's order,
// the pairs (a at p, b at q), both ascending; a filter drops pairs from
// this sequence and reorders none.
//
// A counting sort of the agents by point, fused with the caller's
// point-of-agent function, finds each point's members; past
// kPointsPerAgent points per agent it sorts by the ranks of the occupied
// points (a radix sort of (point, agent)) and finds forward neighbours
// in a point-indexed table never cleared (an entry counts only if the
// group it names sits at that point), so a build is O(agents + edges) at
// any ratio of points to agents.
//
// The sort's groups are the snapshot's group form (Snapshot::Groups):
// one group per point (per occupied point when ranked), its members
// ascending, so reading the groups in order is the order contract above.
// A build with no forward neighbours and no filter (the one-point
// waypoint, the radius-0 random walk and grid paths, explicit paths)
// hands over its groups and writes no key and no CSR: it is
// O(agents + points).  A forward build whose pairs turn out to be
// cliques only hands over its groups too; every other build leaves its
// keys, and the CSR is built lazily from them.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/snapshot.hpp"

namespace megflood {

// The forward-neighbour function of a model with no cross-point edges.
struct NoForward {};

// The filter of a model that keeps every candidate pair.
struct AcceptAll {};

class ColocationBuilder {
 public:
  // Overwrites `snapshot` with the co-location edges of its num_nodes()
  // agents: point_of(i) < num_points is agent i's point (called once per
  // agent, in ascending order), forward(p, visit) calls visit(q) once for
  // each forward neighbour q of point p, in the model's order, and
  // accept(a, b) says whether candidate pair (a, b) is an edge.
  template <typename PointOf, typename Forward = NoForward,
            typename Accept = AcceptAll>
  void build(Snapshot& snapshot, std::size_t num_points, PointOf&& point_of,
             Forward&& forward = {}, Accept&& accept = {}) {
    constexpr bool kCross = !std::is_same_v<std::decay_t<Forward>, NoForward>;
    constexpr bool kFilter = !std::is_same_v<std::decay_t<Accept>, AcceptAll>;
    const auto n = static_cast<std::uint32_t>(snapshot.num_nodes());
    // Counts land two slots up and the fill advances group g's cursor at
    // g + 1, so then group g's members are mem[end[g] .. end[g + 1]), i
    // at slot[i], and group `groups` is empty.  Unranked, an agent's
    // group is its point.
    groups_.group.resize(n);
    std::uint32_t* const group = groups_.group.data();
    const bool by_rank = num_points > kPointsPerAgent * std::size_t{n};
    std::vector<std::uint32_t>& ends = groups_.end;
    if (!by_rank) {
      ends.assign(num_points + 2, 0u);
      for (std::uint32_t i = 0; i < n; ++i) {
        group[i] = point_of(i);
        ++ends[group[i] + 2];
      }
    } else {
      point_.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) point_[i] = point_of(i);
      ends.assign(std::size_t{rank_points(n, num_points)} + 2, 0u);
      for (std::uint32_t i = 0; i < n; ++i) ++ends[group[i] + 2];
    }
    const auto groups = static_cast<std::uint32_t>(ends.size() - 2);
    std::uint32_t* const end = ends.data();
    groups_.members.resize(std::size_t{n} + kPairBlock);  // block reads
    groups_.slot.resize(n);
    std::uint32_t* const slot = groups_.slot.data();
    std::uint64_t directed = 0;  // sum of k (k - 1) over the groups
    for (std::size_t g = 2; g < ends.size(); ++g) {
      directed += std::uint64_t{end[g]} * (end[g] - std::uint64_t{1});
      end[g] += end[g - 1];
    }
    std::uint32_t* const mem = groups_.members.data();
    for (std::uint32_t i = 0; i < n; ++i) {
      slot[i] = end[group[i] + 1]++;
      mem[slot[i]] = i;
    }
    groups_.count = groups;
    groups_.edges = directed / 2;
    // Cliques alone: the groups are the snapshot, with no key written.
    if constexpr (!kCross && !kFilter) {
      snapshot.adopt_groups(groups_);
      return;
    }
    // A forward neighbour's group: at_point_ is written at every occupied
    // point of a ranked build before any lookup.
    if constexpr (kCross) {
      if (by_rank && at_point_.size() < num_points) {
        at_point_.resize(num_points);
      }
      for (std::uint32_t g = 0; by_rank && g < groups; ++g) {
        at_point_[point_[mem[end[g]]]] = g;
      }
    }
    // The pairs, straight into the snapshot's key array: each member with
    // every later member of its group, and after the group's last member
    // the pairs with each occupied forward neighbour.  The array always
    // has room for the clique candidates still to come, the block being
    // written and kPairBlock spare slots; it grows geometrically, since a
    // filtered build writes fewer keys than its candidates.
    std::vector<std::uint64_t>& keys = snapshot.key_buffer();
    keys.resize(directed / 2 + kPairBlock);
    std::uint64_t* key = keys.data();
    std::size_t cliques_left = directed / 2;
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t g = group[mem[j]];
      const std::uint32_t* const last = mem + end[g + 1];
      key = write_row(key, mem[j], mem + j + 1, last, accept);
      if constexpr (kCross) {
        if (mem + j + 1 < last) continue;
        const std::size_t size_g = end[g + 1] - end[g];
        cliques_left -= size_g * (size_g - 1) / 2;
        forward(by_rank ? point_[mem[j]] : g, [&](std::uint32_t q) {
          const std::uint32_t h = by_rank ? at_point_[q] : q;
          if (h >= groups || end[h] == end[h + 1]) return;
          if (by_rank && point_[mem[end[h]]] != q) return;
          const auto at = static_cast<std::size_t>(key - keys.data());
          const std::size_t need =
              at + cliques_left + kPairBlock + size_g * (end[h + 1] - end[h]);
          if (need > keys.size()) {
            keys.resize(std::max(need, 2 * keys.size()));
            key = keys.data() + at;
          }
          for (const std::uint32_t* a = mem + end[g]; a < last; ++a) {
            key = write_row(key, *a, mem + end[h], mem + end[h + 1], accept);
          }
        });
      }
    }
    keys.erase(keys.begin() + (key - keys.data()), keys.end());
    // A filter may drop clique pairs and keep cross pairs in equal number,
    // so only an unfiltered build can tell a clique-only snapshot by its
    // key count; that one reads as groups too.
    if (!kFilter && keys.size() == directed / 2) {
      snapshot.adopt_groups(groups_);
    }
  }

  // Bytes held by the build's scratch: linear in the agents, plus one
  // word per point for forward neighbours past kPointsPerAgent.
  std::size_t scratch_bytes() const noexcept {
    return sizeof(std::uint32_t) *
               (groups_.end.capacity() + groups_.members.capacity() +
                groups_.group.capacity() + groups_.slot.capacity() +
                point_.capacity() + at_point_.capacity()) +
           sizeof(std::uint64_t) *
               (sorted_.capacity() + sort_scratch_.capacity());
  }

 private:
  static constexpr std::size_t kPointsPerAgent = 4;

  // Pair runs are written in whole blocks that may run past their end,
  // onto slots written later or spare slots dropped at the end: a loop
  // over each run's own length mispredicts once per agent.
  static constexpr std::uint32_t kPairBlock = 8;

  // Writes the pairs (a, b), b in [src, last), that `accept` keeps at
  // `key`; returns their end.  A filtered row stores every candidate and
  // advances past the kept ones: which pairs pass changes every step, so
  // a branch on accept would mispredict often.
  template <typename Accept>
  static std::uint64_t* write_row(std::uint64_t* key, std::uint32_t a,
                                  const std::uint32_t* src,
                                  const std::uint32_t* last, Accept& accept) {
    const std::uint64_t row = pack_pair(a, 0);
    if constexpr (!std::is_same_v<std::decay_t<Accept>, AcceptAll>) {
      for (; src < last; ++src) {
        *key = row | *src;
        key += accept(a, *src);
      }
      return key;
    }
    std::uint64_t* dst = key;
    key += last - src;
    do {
      std::uint32_t block[kPairBlock];  // local: no store aliases it
      std::memcpy(block, src, sizeof block);
      for (std::uint32_t b = 0; b < kPairBlock; ++b) dst[b] = row | block[b];
      src += kPairBlock;
      dst += kPairBlock;
    } while (src < last);
    return key;
  }

  // Sets agent i's group to the rank of its point among the occupied
  // points, ascending, and returns their count: a stable LSD radix sort
  // of (point, agent) by point, one O(n) pass per byte of a point id.
  std::uint32_t rank_points(std::uint32_t n, std::size_t num_points) {
    sorted_.resize(n);
    sort_scratch_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) sorted_[i] = pack_pair(point_[i], i);
    const auto bits =
        static_cast<unsigned>(std::bit_width(std::uint64_t{num_points} - 1));
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
      groups_.group[pair_key_j(x)] = rank;
    }
    return rank + 1;
  }

  // The groups being built (handed to the snapshot, which hands back its
  // previous ones) and, ranked, each agent's point.
  Snapshot::Groups groups_;
  std::vector<std::uint32_t> point_;
  // The radix sort's two buffers.
  std::vector<std::uint64_t> sorted_, sort_scratch_;
  // The group at each occupied point (ranked builds with forward
  // neighbours; stale elsewhere).
  std::vector<std::uint32_t> at_point_;
};

}  // namespace megflood
