// Tests for the sorted pair set of the edge-MEG engines
// (meg/pair_set.hpp), each against a brute-force reference over every
// pair of an n-node population, n <= 12 (n = 256 for the serve regime's
// index-to-key conversion): the in-place merge, the in-place complement
// walk with states, the complement walk's order, the index-to-key
// conversion and the range checks on the keys that enter a set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "meg/pair_set.hpp"
#include "step_hash.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

// Every pair key of an n-node population, ascending.
std::vector<std::uint64_t> all_keys(NodeId n) {
  std::vector<std::uint64_t> keys;
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) keys.push_back(pack_pair(i, j));
  }
  return keys;
}

EdgeList edges_of(std::span<const std::uint64_t> keys) {
  EdgeList edges;
  for (const std::uint64_t key : keys) {
    edges.emplace_back(pair_key_i(key), pair_key_j(key));
  }
  return edges;
}

TEST(PairSet, MergeMatchesBruteForce) {
  // Every pair is drawn into one of: off, on and surviving, on and dying,
  // born, or on and born again, surviving or dying (the two-state
  // engine's birth marks land on on-pairs too).
  Rng rng(7);
  int births_on_survivors = 0;
  int births_on_the_dead = 0;
  for (NodeId n = 2; n <= 12; ++n) {
    for (int round = 0; round < 40; ++round) {
      PairSet set;
      PairKeys expected;
      for (const std::uint64_t key : all_keys(n)) {
        switch (rng.uniform_int(std::uint64_t{6})) {
          case 1:
            set.keys.push_back(key);
            expected.push_back(key);
            break;
          case 2:
            set.keys.push_back(key);
            set.died.push_back(key);
            break;
          case 3:
            set.born.push_back(key);
            expected.push_back(key);
            break;
          case 4:
            set.keys.push_back(key);
            set.born.push_back(key);
            expected.push_back(key);
            ++births_on_survivors;
            break;
          case 5:
            set.keys.push_back(key);
            set.died.push_back(key);
            set.born.push_back(key);
            ++births_on_the_dead;
            break;
          default:
            break;
        }
      }
      Snapshot snapshot(n);
      set.merge(n, snapshot);
      EXPECT_EQ(set.keys, expected) << "n=" << n << " round=" << round;
      EXPECT_EQ(decoded_edges(snapshot), edges_of(expected));
      EXPECT_TRUE(set.died.empty());
      EXPECT_TRUE(set.born.empty());
      EXPECT_TRUE(set.states.empty());
    }
  }
  EXPECT_GT(births_on_survivors, 0);
  EXPECT_GT(births_on_the_dead, 0);
}

TEST(PairSet, MergeWithEveryBornKeyFirstWritesOverTheMovedSet) {
  // Every born key precedes every set key and none dies: the writer
  // emits all the born keys first, so its write index reaches the read
  // cursor, the tightest case of the in-place merge.  Both with a buffer
  // that has to grow and one that has room.
  for (NodeId n = 3; n <= 12; ++n) {
    const std::vector<std::uint64_t> everything = all_keys(n);
    for (std::size_t split = 1; split < everything.size(); ++split) {
      for (const bool roomy : {false, true}) {
        PairSet set;
        if (roomy) set.keys.reserve(2 * everything.size());
        set.keys.assign(everything.begin() + static_cast<std::ptrdiff_t>(split),
                        everything.end());
        set.born.assign(everything.begin(),
                        everything.begin() + static_cast<std::ptrdiff_t>(split));
        Snapshot snapshot(n);
        set.merge(n, snapshot);
        ASSERT_EQ(set.keys, PairKeys(everything.begin(), everything.end()))
            << "n=" << n << " split=" << split << " roomy=" << roomy;
        EXPECT_EQ(snapshot.keys().data(), set.keys.data());
        EXPECT_EQ(decoded_edges(snapshot), edges_of(everything));
      }
    }
  }
}

TEST(PairSet, MergeOfABuiltSetWritesItsEdges) {
  PairSet set;
  set.keys = {pack_pair(0, 3), pack_pair(1, 2), pack_pair(2, 3)};
  Snapshot snapshot(4);
  set.merge(4, snapshot);
  EXPECT_EQ(set.keys,
            (PairKeys{pack_pair(0, 3), pack_pair(1, 2), pack_pair(2, 3)}));
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 3}, {1, 2}, {2, 3}}));
}

TEST(PairSetWriter, StatesDropTheMajorityAndLendChiEdges) {
  // States 0..3 with majority 1 and chi = {0, 0, 1, 1}: a set entry or an
  // inserted rank in the majority leaves the set, one in state 2 or 3 is
  // also an edge.  The set's own entries may be in the majority (the
  // sparse general select writes movers' states in place), and the walk
  // writes the next set over the moved one it reads.
  const StateMask chi = {0, 0, 1, 1};
  constexpr std::uint8_t kMajority = 1;
  Rng rng(11);
  for (NodeId n = 2; n <= 12; ++n) {
    for (int round = 0; round < 20; ++round) {
      PairSet set;
      std::vector<std::uint64_t> ranks;
      std::vector<std::uint8_t> inserted;
      PairKeys kept_keys;
      PairStates kept_states;
      std::vector<std::uint64_t> edge_keys;
      std::uint64_t complement = 0;
      for (const std::uint64_t key : all_keys(n)) {
        const auto state = static_cast<std::uint8_t>(rng.uniform_int(4));
        const std::uint64_t draw = rng.uniform_int(3);
        if (draw == 0) {
          set.keys.push_back(key);
          set.states.push_back(state);
        } else if (draw == 1) {
          ranks.push_back(complement);
          inserted.push_back(state);
        }
        complement += draw != 0;
        if (draw == 2) continue;
        if (state != kMajority) {
          kept_keys.push_back(key);
          kept_states.push_back(state);
        }
        if (chi[state]) edge_keys.push_back(key);
      }
      if (round % 2 == 1) set.keys.shrink_to_fit();  // the walk must grow
      Snapshot snapshot(n);
      PairSetWriter out(set, n, ranks, kMajority, chi);
      const std::uint64_t* keys = out.keys();
      const std::uint8_t* states = out.states();
      walk_complement(
          n, {keys, set.keys.size() - ranks.size()}, ranks,
          [&](std::size_t pos) { out.emit_state(keys[pos], states[pos]); },
          [&](std::size_t r, std::uint64_t key) {
            out.emit_state(key, inserted[r]);
          });
      out.finish(snapshot);
      EXPECT_EQ(set.keys, kept_keys) << "n=" << n << " round=" << round;
      EXPECT_EQ(set.states, kept_states);
      EXPECT_EQ(decoded_edges(snapshot), edges_of(edge_keys));
      EXPECT_EQ(snapshot.num_edges(), edge_keys.size());
      EXPECT_EQ(snapshot.keys().data(), set.keys.data());
      EXPECT_EQ(snapshot.key_states(), set.states.data());
    }
  }
}

TEST(PairSet, ComplementWalkCoversEveryRank) {
  // With every complement rank drawn, the walk must visit each pair of
  // the population exactly once in ascending order: the set's keys as
  // entries, and the r-th pair outside the set as rank r.
  Rng rng(13);
  for (NodeId n = 2; n <= 12; ++n) {
    for (int round = 0; round < 20; ++round) {
      const std::vector<std::uint64_t> everything = all_keys(n);
      std::vector<std::uint64_t> keys, complement;
      for (const std::uint64_t key : everything) {
        (rng.bernoulli(round / 20.0) ? keys : complement).push_back(key);
      }
      std::vector<std::uint64_t> ranks(complement.size());
      for (std::size_t r = 0; r < ranks.size(); ++r) ranks[r] = r;
      std::vector<std::uint64_t> visited;
      walk_complement(
          n, keys, ranks,
          [&](std::size_t pos) { visited.push_back(keys[pos]); },
          [&](std::size_t r, std::uint64_t key) {
            EXPECT_EQ(key, complement[r]);
            visited.push_back(key);
          });
      EXPECT_EQ(visited, everything) << "n=" << n << " round=" << round;
    }
  }
}

TEST(PairSet, ComplementRanksAreDistinctAndInRange) {
  Rng rng(17);
  std::vector<std::uint64_t> ranks;
  for (NodeId n = 2; n <= 12; ++n) {
    const std::uint64_t pairs = pair_count(n);
    for (std::uint64_t size = 0; size <= pairs; ++size) {
      draw_complement_ranks(rng, n, size, 0.5, ranks);
      EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end()));
      EXPECT_EQ(std::adjacent_find(ranks.begin(), ranks.end()), ranks.end());
      EXPECT_TRUE(ranks.empty() || ranks.back() < pairs - size);
    }
    draw_complement_ranks(rng, n, 0, 0.0, ranks);
    EXPECT_TRUE(ranks.empty());
  }
}

TEST(PairSet, IndicesToKeysMatchesPairFromIndex) {
  // Random ascending marks, so the cursor both steps within a row and
  // jumps rows; then the serve step's births (n = 256, gaps of ~420
  // indices, so most marks cross rows), and every index one before, at and
  // one after a row start.
  Rng rng(19);
  for (NodeId n = 2; n <= 12; ++n) {
    const std::vector<std::uint64_t> everything = all_keys(n);
    for (int round = 0; round < 20; ++round) {
      std::vector<std::uint64_t> marks, expected;
      for (std::uint64_t index = 0; index < everything.size(); ++index) {
        if (rng.bernoulli(round / 20.0)) {
          marks.push_back(index);
          expected.push_back(everything[index]);
        }
      }
      indices_to_keys(n, marks);
      EXPECT_EQ(marks, expected) << "n=" << n << " round=" << round;
    }
  }
  constexpr NodeId kServeNodes = 256;
  const std::vector<std::uint64_t> everything = all_keys(kServeNodes);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> marks, expected;
    for (std::uint64_t index = rng.uniform_int(420); index < everything.size();
         index += 1 + rng.uniform_int(840)) {
      marks.push_back(index);
      expected.push_back(everything[index]);
    }
    indices_to_keys(kServeNodes, marks);
    ASSERT_EQ(marks, expected) << "serve round=" << round;
  }
  std::vector<std::uint64_t> marks, expected;
  for (NodeId row = 1; row + 1 < kServeNodes; ++row) {
    const std::uint64_t start = pair_row_start(kServeNodes, row);
    for (const std::uint64_t index : {start - 1, start, start + 1}) {
      if (index >= everything.size() ||
          (!marks.empty() && marks.back() >= index)) {
        continue;
      }
      marks.push_back(index);
      expected.push_back(everything[index]);
    }
  }
  indices_to_keys(kServeNodes, marks);
  EXPECT_EQ(marks, expected);
}

TEST(PairSetWriter, ThrowsOnAnEdgeEndpointOutOfRange) {
  // Keys are checked where they enter a set, before anything moves: a
  // born key with j = 5 >= n = 4 fails the merge, and a rank at or past
  // the complement count (4 of the 6 pairs of n = 4 are outside a 2-key
  // set) fails the walk's writer.  Each leaves the set, its flip lists
  // and the snapshot as they were.  Every born key's j is checked, not
  // only the largest key's: pack_pair(0, 5) sorts below pack_pair(1, 2).
  PairSet set;
  set.keys = {pack_pair(0, 1)};
  Snapshot snapshot(4);
  set.merge(4, snapshot);
  for (const PairKeys& born : {PairKeys{pack_pair(0, 2), pack_pair(1, 5)},
                                PairKeys{pack_pair(0, 5), pack_pair(1, 2)}}) {
    set.born = born;
    set.died = {pack_pair(0, 1)};
    EXPECT_THROW(set.merge(4, snapshot), std::out_of_range);
    EXPECT_EQ(set.keys, PairKeys{pack_pair(0, 1)});
    EXPECT_EQ(set.born, born);
    EXPECT_EQ(set.died, PairKeys{pack_pair(0, 1)});
    EXPECT_EQ(snapshot.keys().data(), set.keys.data());
    EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 1}}));
  }
  set.born = {pack_pair(0, 2)};
  set.died = {pack_pair(0, 1)};
  set.merge(4, snapshot);
  EXPECT_EQ(set.keys, PairKeys{pack_pair(0, 2)});
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 2}}));

  const StateMask chi = {0, 1, 0};
  PairSet states;
  states.keys = {pack_pair(0, 1), pack_pair(2, 3)};
  states.states = {1, 2};
  {
    PairSetWriter out(states, 4, {}, 0, chi);
    const std::uint64_t* keys = out.keys();
    const std::uint8_t* held = out.states();
    walk_complement(
        4, {keys, 2}, {},
        [&](std::size_t pos) { out.emit_state(keys[pos], held[pos]); },
        [&](std::size_t, std::uint64_t key) { out.emit_state(key, 1); });
    out.finish(snapshot);
  }
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 1}}));
  const std::uint64_t* lent = snapshot.keys().data();
  for (const std::vector<std::uint64_t>& ranks :
       {std::vector<std::uint64_t>{4}, std::vector<std::uint64_t>{0, 3, 9}}) {
    EXPECT_THROW(PairSetWriter(states, 4, ranks, 0, chi), std::out_of_range);
    EXPECT_EQ(states.keys, (PairKeys{pack_pair(0, 1), pack_pair(2, 3)}));
    EXPECT_EQ(states.states, (PairStates{1, 2}));
    EXPECT_EQ(states.keys.data(), lent);
    EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 1}}));
  }
  // The last rank in range: pairs (0, 2), (0, 3), (1, 2) and (1, 3) are
  // the complement, rank 3 is (1, 3).
  const std::vector<std::uint64_t> last = {3};
  PairSetWriter out(states, 4, last, 0, chi);
  const std::uint64_t* keys = out.keys();
  const std::uint8_t* held = out.states();
  walk_complement(
      4, {keys, 2}, last,
      [&](std::size_t pos) { out.emit_state(keys[pos], held[pos]); },
      [&](std::size_t, std::uint64_t key) { out.emit_state(key, 1); });
  out.finish(snapshot);
  EXPECT_EQ(states.keys,
            (PairKeys{pack_pair(0, 1), pack_pair(1, 3), pack_pair(2, 3)}));
  EXPECT_EQ(states.states, (PairStates{1, 1, 2}));
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 1}, {1, 3}}));
}

}  // namespace
}  // namespace megflood
