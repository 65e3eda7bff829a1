// Unit tests for snapshots and the fixed/scripted dynamic graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/snapshot.hpp"
#include "core/trace.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/clique_flicker.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/colocation.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"
#include "step_hash.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(Snapshot, StartsEmpty) {
  Snapshot s(4);
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
}

TEST(Snapshot, AddEdgeBothDirections) {
  Snapshot s(3);
  s.add_edge(0, 2);
  EXPECT_TRUE(s.has_edge(0, 2));
  EXPECT_TRUE(s.has_edge(2, 0));
  EXPECT_EQ(s.degree(0), 1u);
  EXPECT_EQ(s.degree(2), 1u);
  EXPECT_EQ(s.num_edges(), 1u);
}

TEST(Snapshot, ClearKeepsNodeCount) {
  Snapshot s(3);
  s.add_edge(0, 1);
  s.clear();
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
}

TEST(Snapshot, ResetChangesNodeCount) {
  Snapshot s(2);
  s.add_edge(0, 1);
  s.reset(5);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.num_edges(), 0u);
}

TEST(Snapshot, EdgesCanonical) {
  Snapshot s(4);
  s.add_edge(3, 1);
  s.add_edge(0, 2);
  const auto edges = s.edges();
  EXPECT_EQ(edges.size(), 2u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

// The groups {0, 2, 5}, {} and {1, 3} with node 4 alone, as a producer
// hands them over: every reader sees the keys of the order contract.
Snapshot::Groups hand_made_groups() {
  Snapshot::Groups groups;
  groups.end = {0, 3, 3, 5, 6, 6};  // one spare entry past the last group
  groups.members = {0, 2, 5, 1, 3, 4, 99};  // and one spare slot
  groups.group = {0, 2, 0, 2, 3, 0};
  groups.slot = {0, 3, 1, 4, 5, 2};
  groups.count = 4;
  groups.edges = 4;
  return groups;
}

TEST(SnapshotGroups, HandedGroupsReadLikeTheirKeys) {
  Snapshot keyed(6);
  for (const auto& [u, v] : EdgeList{{0, 2}, {0, 5}, {2, 5}, {1, 3}}) {
    keyed.add_edge(u, v);
  }
  Snapshot grouped(6);
  grouped.add_edge(5, 4);  // replaced
  EXPECT_EQ(grouped.degree(5), 1u);
  Snapshot::Groups groups = hand_made_groups();
  grouped.adopt_groups(groups);
  // The producer gets the previous (empty) group buffers back.
  EXPECT_TRUE(groups.end.empty());
  EXPECT_TRUE(groups.members.empty());
  ASSERT_NE(grouped.groups(), nullptr);
  EXPECT_EQ(grouped.groups()->count, 4u);
  EXPECT_EQ(grouped.num_edges(), 4u);
  EXPECT_EQ(decoded_edges(grouped), decoded_edges(keyed));
  EXPECT_EQ(grouped.key_states(), nullptr);
  const auto keys = grouped.keys();
  EXPECT_EQ(std::vector<std::uint64_t>(keys.begin(), keys.end()),
            (std::vector<std::uint64_t>{pack_pair(0, 2), pack_pair(0, 5),
                                        pack_pair(2, 5), pack_pair(1, 3)}));
  EXPECT_EQ(grouped.edges(), keyed.edges());
  for (NodeId u = 0; u < 6; ++u) {
    const auto got = grouped.neighbors(u);
    const auto want = keyed.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << "node " << u;
    EXPECT_EQ(grouped.degree(u), keyed.degree(u)) << "node " << u;
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(grouped.has_edge(u, v), keyed.has_edge(u, v))
          << u << "-" << v;
    }
  }
  // A copy owns the edges as keys.
  const Snapshot copy = grouped;
  EXPECT_EQ(copy.groups(), nullptr);
  EXPECT_EQ(decoded_edges(copy), decoded_edges(keyed));
}

TEST(Snapshot, KeysKeepTheOrientationAsAdded) {
  Snapshot s(4);
  s.add_edge(3, 1);
  s.add_edge(0, 2);
  EXPECT_EQ(std::vector<std::uint64_t>(s.keys().begin(), s.keys().end()),
            (std::vector<std::uint64_t>{pack_pair(3, 1), pack_pair(0, 2)}));
  EXPECT_EQ(decoded_edges(s), (EdgeList{{3, 1}, {0, 2}}));
  EXPECT_EQ(s.key_states(), nullptr);
}

// A borrowed set with states 0..2 and on = {0, 1, 1}: keys in state 0
// are no edges, so every reader skips them.
TEST(Snapshot, BorrowedStatesReadOnlyTheOnKeys) {
  const std::vector<std::uint64_t> keys = {pack_pair(0, 1), pack_pair(0, 3),
                                           pack_pair(1, 2), pack_pair(2, 3),
                                           pack_pair(3, 4)};
  const std::vector<std::uint8_t> states = {1, 0, 2, 0, 1};
  const StateMask on = {0, 1, 1};
  Snapshot s(5);
  s.add_edge(4, 0);
  s.borrow(keys, states, on, 3);
  EXPECT_EQ(s.keys().data(), keys.data());
  EXPECT_EQ(s.keys().size(), keys.size());
  EXPECT_EQ(s.key_states(), states.data());
  EXPECT_EQ(s.num_edges(), 3u);
  EXPECT_EQ(decoded_edges(s), (EdgeList{{0, 1}, {1, 2}, {3, 4}}));

  Snapshot plain(5);
  for (const auto& [u, v] : decoded_edges(s)) plain.add_edge(u, v);
  EXPECT_EQ(s.edges(), plain.edges());
  for (NodeId u = 0; u < 5; ++u) {
    const auto got = s.neighbors(u);
    const auto want = plain.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << "node " << u;
  }
  EXPECT_FALSE(s.has_edge(0, 3));
  EXPECT_FALSE(s.has_edge(2, 3));

  // A copy owns the edges alone; add_edge on the borrow copies them too.
  const Snapshot copy = s;
  EXPECT_NE(copy.keys().data(), keys.data());
  EXPECT_EQ(copy.key_states(), nullptr);
  EXPECT_EQ(copy.num_edges(), 3u);
  EXPECT_EQ(decoded_edges(copy), decoded_edges(s));
  EXPECT_EQ(copy.edges(), plain.edges());
  s.add_edge(4, 2);
  EXPECT_EQ(s.key_states(), nullptr);
  EXPECT_EQ(decoded_edges(s), (EdgeList{{0, 1}, {1, 2}, {3, 4}, {4, 2}}));
  EXPECT_EQ(keys.size(), 5u);  // the borrowed set is never written

  // clear() drops the borrow.
  s.borrow(keys, states, on, 3);
  s.clear();
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_TRUE(s.keys().empty());
  EXPECT_EQ(s.degree(1), 0u);
}

TEST(SnapshotGroups, MutationsLeaveTheGroupForm) {
  Snapshot s(6);
  const auto hand_over = [&s] {
    Snapshot::Groups groups = hand_made_groups();
    s.adopt_groups(groups);
  };
  // add_edge writes the groups' keys first, then adds.
  hand_over();
  s.add_edge(4, 2);
  EXPECT_EQ(s.groups(), nullptr);
  EXPECT_EQ(s.num_edges(), 5u);
  EXPECT_EQ(decoded_edges(s),
            (EdgeList{{0, 2}, {0, 5}, {2, 5}, {1, 3}, {4, 2}}));
  auto row = s.neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{0, 5, 4}));
  EXPECT_TRUE(s.has_edge(2, 4));

  // After a CSR read, so do clear, reset and key_buffer.
  hand_over();
  EXPECT_EQ(s.degree(0), 2u);
  row = s.neighbors(5);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{0, 2}));
  s.clear();
  EXPECT_EQ(s.groups(), nullptr);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_EQ(s.degree(0), 0u);
  EXPECT_FALSE(s.has_edge(0, 2));
  hand_over();
  s.key_buffer() = {pack_pair(3, 4)};
  EXPECT_EQ(s.num_edges(), 1u);
  EXPECT_EQ(s.degree(0), 0u);
  EXPECT_EQ(decoded_edges(s), (EdgeList{{3, 4}}));
  hand_over();
  s.reset(7);
  EXPECT_EQ(s.num_nodes(), 7u);
  EXPECT_EQ(s.degree(6), 0u);
  EXPECT_TRUE(s.edges().empty());
  s.add_edge(3, 6);
  EXPECT_EQ(s.degree(6), 1u);
  EXPECT_TRUE(s.has_edge(6, 3));
}

// The co-location builder's group form against an add_edge reference in
// the order contract (occupied points ascending, at each point every
// member with each later member, both ascending), over random layouts:
// empty points, singletons, every agent at one point, and more than
// kPointsPerAgent points per agent (the ranked build).  Every reader of
// the group form, and the group view's pick for every (u, r), must equal
// the reference's, over several builds through one builder (the buffers
// swap between builder and snapshot).
TEST(SnapshotGroups, BuilderGroupsMatchAnAddEdgeReference) {
  struct Case {
    const char* name;
    std::size_t agents;
    std::size_t points;
    std::size_t used;  // agents draw their points from [0, used)
  };
  const Case cases[] = {
      {"sparse", 40, 160, 160},       {"crowded", 64, 16, 5},
      {"all at one point", 33, 8, 1}, {"ranked", 50, 1000, 1000},
      {"ranked, one point", 20, 4096, 1}, {"no agents", 0, 8, 8},
  };
  Rng rng(17);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ColocationBuilder builder;
    Snapshot snapshot(c.agents);
    std::vector<std::uint32_t> point(c.agents);
    for (int round = 0; round < 4; ++round) {
      for (auto& p : point) {
        p = static_cast<std::uint32_t>(rng.uniform_int(c.used));
      }
      builder.build(snapshot, c.points,
                    [&point](std::uint32_t i) { return point[i]; });
      ASSERT_NE(snapshot.groups(), nullptr);

      Snapshot reference(c.agents);
      for (std::uint32_t p = 0; p < c.points; ++p) {
        for (NodeId a = 0; a < c.agents; ++a) {
          if (point[a] != p) continue;
          for (NodeId b = a + 1; b < c.agents; ++b) {
            if (point[b] == p) reference.add_edge(a, b);
          }
        }
      }
      ASSERT_EQ(snapshot.num_edges(), reference.num_edges());
      ASSERT_EQ(decoded_edges(snapshot), decoded_edges(reference));
      const Snapshot::GroupView rows = snapshot.visit_rows(
          [](const auto& view) {
            if constexpr (std::is_same_v<std::decay_t<decltype(view)>,
                                         Snapshot::GroupView>) {
              return view;
            } else {
              ADD_FAILURE() << "not the group form";
              return Snapshot::GroupView{};
            }
          });
      const Snapshot::CsrView want = reference.csr();
      for (NodeId u = 0; u < c.agents; ++u) {
        ASSERT_EQ(rows.degree(u), want.degree(u)) << "node " << u;
        for (std::uint32_t r = 0; r < want.degree(u); ++r) {
          ASSERT_EQ(rows.neighbor(u, r), want.neighbor(u, r))
              << "node " << u << " rank " << r;
        }
        ASSERT_EQ(snapshot.degree(u), reference.degree(u)) << "node " << u;
      }
      for (NodeId u = 0; u < std::min<std::size_t>(c.agents, 24); ++u) {
        for (NodeId v = 0; v < std::min<std::size_t>(c.agents, 24); ++v) {
          ASSERT_EQ(snapshot.has_edge(u, v), reference.has_edge(u, v))
              << u << "-" << v;
        }
      }
      const auto keys = snapshot.keys();
      const auto want_keys = reference.keys();
      ASSERT_EQ(std::vector<std::uint64_t>(keys.begin(), keys.end()),
                std::vector<std::uint64_t>(want_keys.begin(), want_keys.end()));
      const Snapshot::CsrView got = snapshot.csr();
      const std::vector<std::uint32_t> offsets(got.offsets,
                                               got.offsets + c.agents + 1);
      ASSERT_EQ(offsets, std::vector<std::uint32_t>(
                             want.offsets, want.offsets + c.agents + 1));
      ASSERT_EQ(
          std::vector<NodeId>(got.neighbors, got.neighbors + offsets.back()),
          std::vector<NodeId>(want.neighbors,
                              want.neighbors + offsets.back()));
      ASSERT_EQ(snapshot.edges(), reference.edges());
      const Snapshot copy = snapshot;
      ASSERT_EQ(copy.groups(), nullptr);
      ASSERT_EQ(decoded_edges(copy), decoded_edges(reference));
    }
  }
}

// Every edge-MEG engine mode lends the snapshot its own key set: the
// snapshot's key array is the engine's array itself, the same pointer and
// size, after construction, every step and reset().  A snapshot holding a
// copied edge list fails this.
TEST(SnapshotKeys, EngineModesLendTheirOwnKeyArray) {
  const BurstyLink link = make_bursty_link(0.01, 0.3, 0.4);
  const TwoStateParams base{0.02, 0.3};
  const auto expect_lent = [](auto& meg, const char* what, bool with_states) {
    SCOPED_TRACE(what);
    for (int t = 0; t <= 6; ++t) {
      if (t == 4) meg.reset(99);
      if (t > 0 && t != 4) meg.step();
      const Snapshot& snapshot = meg.snapshot();
      ASSERT_EQ(snapshot.keys().data(), meg.set_keys().data()) << "t=" << t;
      ASSERT_EQ(snapshot.keys().size(), meg.set_keys().size()) << "t=" << t;
      ASSERT_EQ(snapshot.key_states() != nullptr, with_states) << "t=" << t;
      ASSERT_EQ(decoded_edges(snapshot).size(), snapshot.num_edges());
      ASSERT_GT(snapshot.num_edges(), 0u) << "t=" << t;
    }
  };
  TwoStateEdgeMEG two_state(60, base, 1);
  expect_lent(two_state, "two-state", false);
  GeneralEdgeMEG general_dense(60, link.chain, link.chi, 2, MegStorage::kDense);
  expect_lent(general_dense, "general, dense", false);
  HeterogeneousEdgeMEG hetero_dense(60, two_speed_rates(base, 0.3, 0.2), 3,
                                    MegStorage::kDense,
                                    two_speed_bounds(base, 0.3, 0.2));
  expect_lent(hetero_dense, "heterogeneous, dense", false);
  HeterogeneousEdgeMEG hetero_sparse(60, two_speed_rates(base, 0.3, 0.2), 4,
                                     MegStorage::kSparse,
                                     two_speed_bounds(base, 0.3, 0.2));
  expect_lent(hetero_sparse, "heterogeneous, sparse", false);
  GeneralEdgeMEG general_sparse(60, link.chain, link.chi, 5,
                                MegStorage::kSparse);
  expect_lent(general_sparse, "general, sparse", true);
  EXPECT_EQ(general_sparse.snapshot().key_states(),
            general_sparse.minority_states().data());
  EXPECT_GT(general_sparse.set_keys().size(),
            general_sparse.snapshot().num_edges());
}

// G(n, p) by geometric skipping over the row-major upper triangle of
// pairs: the fixed graph the "fixed graph" hash below was recorded with.
Graph skip_sampled_graph(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  geometric_select(rng, n * (n - 1) / 2, p, [&](std::uint64_t rem) {
    std::size_t i = 0;
    for (std::size_t row = n - 1; rem >= row; --row, ++i) rem -= row;
    g.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1 + rem));
  });
  return g;
}

// The owning producers write keys into the snapshot's own array.  Their
// edges, decoded from the keys, must be exactly the (u, v) pair lists the
// snapshot held when it stored pairs: each hash folds those lists over
// 21 snapshots and was recorded from the pair-list snapshot.  Covers the
// node-MEG, all three mobility snapshot builds (one-point with the grid
// scan, one-point with the occupied-point ranking, multi-point), fixed
// graphs, the add_edge mobility and flicker models, and trace replay of a
// plain and a state-carrying borrowed snapshot.
TEST(SnapshotKeys, OwningProducersDecodeToTheRecordedPairs) {
  struct Producer {
    const char* name;
    std::function<std::unique_ptr<DynamicGraph>()> make;
    std::uint64_t hash;
  };
  const auto waypoint = [](std::size_t n, double v_min, double v_max,
                           double radius, std::size_t m, std::uint64_t seed) {
    WaypointParams p;
    p.side_length = 8.0;
    p.v_min = v_min;
    p.v_max = v_max;
    p.radius = radius;
    p.resolution = m;
    return make_random_waypoint(n, p, seed);
  };
  const std::vector<Producer> producers = {
      {"node-MEG",
       [] {
         DenseChain chain(
             {{0.7, 0.2, 0.1}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}});
         return std::make_unique<ExplicitNodeMEG>(
             40, chain, same_state_connection(3), 5);
       },
       0x8fcb6555e12dc27dULL},
      {"waypoint one-point",
       [&] { return waypoint(64, 0.2, 0.5, 1.0, 8, 7); },
       0xcd49baeb45f7bb83ULL},
      {"waypoint one-point fine grid",
       [&] { return waypoint(300, 0.05, 0.1, 0.16, 48, 8); },
       0xeb56cb532514142bULL},
      {"waypoint multi-point",
       [&] { return waypoint(64, 0.2, 0.5, 1.0, 48, 9); },
       0x625bdd2e7c76578aULL},
      {"fixed graph",
       [] {
         Rng rng(11);
         return std::make_unique<FixedDynamicGraph>(
             skip_sampled_graph(50, 0.1, rng));
       },
       0x4c9adf9ce7f64432ULL},
      {"random walk",
       [] {
         return std::make_unique<RandomWalkModel>(
             std::make_shared<const Graph>(torus_2d(6)), 40,
             RandomWalkParams{}, 12);
       },
       0x8e6d0968cfd470b1ULL},
      {"clique flicker",
       [] { return std::make_unique<CliqueFlickerGraph>(40, 8, 0.7, 13, 0.5); },
       0x0d9922af9ae17da1ULL},
      {"trace replay, two-state",
       [] {
         TwoStateEdgeMEG meg(40, {0.02, 0.3}, 14);
         return std::make_unique<ScriptedDynamicGraph>(record_trace(meg, 20));
       },
       0x3c1600aad9e0ea9cULL},
      {"trace replay, sparse general",
       [] {
         const BurstyLink link = make_bursty_link(0.01, 0.3, 0.4);
         GeneralEdgeMEG meg(60, link.chain, link.chi, 15, MegStorage::kSparse);
         return std::make_unique<ScriptedDynamicGraph>(record_trace(meg, 20));
       },
       0x586c25093d99cc7bULL},
  };
  for (const Producer& producer : producers) {
    SCOPED_TRACE(producer.name);
    const std::unique_ptr<DynamicGraph> graph = producer.make();
    std::uint64_t h = kFnvOffset;
    for (int t = 0; t <= 20; ++t) {
      if (t > 0) graph->step();
      const Snapshot& snapshot = graph->snapshot();
      EXPECT_EQ(snapshot.key_states(), nullptr) << "t=" << t;
      h = fnv_mix_bytes(h, decoded_edges(snapshot));
    }
    EXPECT_EQ(h, producer.hash);
  }
}

TEST(FixedDynamicGraph, MirrorsGraph) {
  const Graph g = cycle_graph(5);
  FixedDynamicGraph d(g);
  EXPECT_EQ(d.num_nodes(), 5u);
  EXPECT_EQ(d.snapshot().num_edges(), 5u);
  EXPECT_TRUE(d.snapshot().has_edge(0, 4));
}

TEST(FixedDynamicGraph, StepKeepsTopologyAdvancesClock) {
  FixedDynamicGraph d(path_graph(4));
  const std::size_t before = d.snapshot().num_edges();
  d.step();
  d.step();
  EXPECT_EQ(d.snapshot().num_edges(), before);
  EXPECT_EQ(d.time(), 2u);
  d.reset(0);
  EXPECT_EQ(d.time(), 0u);
}

Snapshot single_edge_snapshot(std::size_t n, NodeId u, NodeId v) {
  Snapshot s(n);
  s.add_edge(u, v);
  return s;
}

TEST(ScriptedDynamicGraph, PlaysSequenceAndHolds) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(3, 0, 1));
  script.push_back(single_edge_snapshot(3, 1, 2));
  ScriptedDynamicGraph d(std::move(script));
  EXPECT_TRUE(d.snapshot().has_edge(0, 1));
  d.step();
  EXPECT_TRUE(d.snapshot().has_edge(1, 2));
  d.step();  // holds final snapshot
  EXPECT_TRUE(d.snapshot().has_edge(1, 2));
}

TEST(ScriptedDynamicGraph, CyclesWhenRequested) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(3, 0, 1));
  script.push_back(single_edge_snapshot(3, 1, 2));
  ScriptedDynamicGraph d(std::move(script), /*cycle=*/true);
  d.step();
  d.step();
  EXPECT_TRUE(d.snapshot().has_edge(0, 1));
}

TEST(ScriptedDynamicGraph, ResetRewinds) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(2, 0, 1));
  script.push_back(Snapshot(2));
  ScriptedDynamicGraph d(std::move(script));
  d.step();
  EXPECT_EQ(d.snapshot().num_edges(), 0u);
  d.reset(0);
  EXPECT_EQ(d.snapshot().num_edges(), 1u);
}

TEST(ScriptedDynamicGraph, RejectsBadScripts) {
  EXPECT_THROW(ScriptedDynamicGraph({}), std::invalid_argument);
  std::vector<Snapshot> bad;
  bad.emplace_back(2);
  bad.emplace_back(3);
  EXPECT_THROW(ScriptedDynamicGraph(std::move(bad)), std::invalid_argument);
}

}  // namespace
}  // namespace megflood
