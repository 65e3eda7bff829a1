// Tests for the sorted pair set of the edge-MEG engines
// (meg/pair_set.hpp), each against a brute-force reference over every
// pair of an n-node population, n <= 12 (n = 256 for the serve regime's
// index-to-key conversion): the merge, the writer with
// states, the complement walk, the index-to-key conversion and the
// writer's range check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

EdgeList edges_of(const std::vector<std::uint64_t>& keys) {
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
      std::vector<std::uint64_t> expected;
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

TEST(PairSet, MergeOfABuiltSetWritesItsEdges) {
  PairSet set;
  set.keys = {pack_pair(0, 3), pack_pair(1, 2), pack_pair(2, 3)};
  Snapshot snapshot(4);
  set.merge(4, snapshot);
  EXPECT_EQ(set.keys, (std::vector<std::uint64_t>{
                          pack_pair(0, 3), pack_pair(1, 2), pack_pair(2, 3)}));
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 3}, {1, 2}, {2, 3}}));
}

TEST(PairSetWriter, StatesDropTheMajorityAndLendChiEdges) {
  // States 0..3 with majority 1 and chi = {0, 0, 1, 1}: an entry in the
  // majority leaves the set, one in state 2 or 3 is also an edge.  The
  // writer is told the exact counts, as the sparse general engine does,
  // and then loose bounds.
  const StateMask chi = {0, 0, 1, 1};
  constexpr std::uint8_t kMajority = 1;
  Rng rng(11);
  for (NodeId n = 2; n <= 12; ++n) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::uint64_t> keys;
      std::vector<std::uint8_t> states;
      for (const std::uint64_t key : all_keys(n)) {
        if (rng.bernoulli(0.5)) {
          keys.push_back(key);
          states.push_back(static_cast<std::uint8_t>(rng.uniform_int(4)));
        }
      }
      std::vector<std::uint64_t> kept_keys, edge_keys;
      std::vector<std::uint8_t> kept_states;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (states[k] != kMajority) {
          kept_keys.push_back(keys[k]);
          kept_states.push_back(states[k]);
        }
        if (chi[states[k]]) edge_keys.push_back(keys[k]);
      }
      const bool exact = round % 2 == 0;
      PairSet set;
      Snapshot snapshot(n);
      PairSetWriter out(set, n, exact ? kept_keys.size() : keys.size(),
                        kMajority, chi);
      for (std::size_t k = 0; k < keys.size(); ++k) {
        out.emit_state(keys[k], states[k]);
      }
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
  // j = 5 is out of range for n = 4.  A kept key throws at finish() and
  // leaves the set and the snapshot as they were; a dropped key, or an
  // entry whose state is no edge, is never checked.
  PairSet set;
  set.keys = {pack_pair(0, 1)};
  Snapshot snapshot(4);
  {
    PairSetWriter out(set, 4, 2);
    out.emit(pack_pair(0, 2), true);
    out.emit(pack_pair(1, 5), true);
    EXPECT_THROW(out.finish(snapshot), std::out_of_range);
  }
  EXPECT_EQ(set.keys, std::vector<std::uint64_t>{pack_pair(0, 1)});
  EXPECT_EQ(snapshot.num_edges(), 0u);
  {
    PairSetWriter out(set, 4, 2);
    out.emit(pack_pair(0, 2), true);
    out.emit(pack_pair(1, 5), false);
    out.finish(snapshot);
  }
  EXPECT_EQ(set.keys, std::vector<std::uint64_t>{pack_pair(0, 2)});
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{0, 2}}));

  const StateMask chi = {0, 1, 0};
  PairSet states;
  {
    PairSetWriter out(states, 4, 2, 0, chi);
    out.emit_state(pack_pair(1, 5), 2);  // kept, but no edge
    out.emit_state(pack_pair(2, 3), 1);
    out.finish(snapshot);
  }
  EXPECT_EQ(states.states, (std::vector<std::uint8_t>{2, 1}));
  EXPECT_EQ(decoded_edges(snapshot), (EdgeList{{2, 3}}));
  {
    PairSetWriter out(states, 4, 1, 0, chi);
    out.emit_state(pack_pair(1, 5), 1);
    EXPECT_THROW(out.finish(snapshot), std::out_of_range);
  }
}

}  // namespace
}  // namespace megflood
