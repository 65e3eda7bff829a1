// Unit tests for snapshots and the fixed/scripted dynamic graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/snapshot.hpp"
#include "graph/builders.hpp"

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

TEST(Snapshot, ProducerCsrReadsLikeTheLazyBuild) {
  // Cliques {0, 1, 2} and {3, 4}, agent 5 alone: the pairs in clique
  // order and the CSR the lazy build makes from them.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 1}, {0, 2}, {1, 2}, {3, 4}};
  Snapshot lazy(6);
  for (const auto& [u, v] : pairs) lazy.add_edge(u, v);
  Snapshot handed(6);
  handed.add_edge(5, 4);  // replaced, CSR built once below
  EXPECT_EQ(handed.degree(5), 1u);
  std::vector<std::pair<NodeId, NodeId>> edges = pairs;
  std::vector<std::uint32_t> offsets = {0, 2, 4, 6, 7, 8, 8};
  std::vector<NodeId> neighbors = {1, 2, 0, 2, 0, 1, 4, 3};
  handed.swap_edges_and_csr(edges, offsets, neighbors);
  // The previous buffers come back for reuse.
  EXPECT_EQ(edges, (std::vector<std::pair<NodeId, NodeId>>{{5, 4}}));
  EXPECT_EQ(offsets.size(), 7u);
  EXPECT_EQ(neighbors.size(), 2u);

  EXPECT_EQ(handed.num_edges(), lazy.num_edges());
  EXPECT_EQ(handed.edge_buffer(), lazy.edge_buffer());
  EXPECT_EQ(handed.edges(), lazy.edges());
  for (NodeId u = 0; u < 6; ++u) {
    const auto got = handed.neighbors(u);
    const auto want = lazy.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << "node " << u;
    EXPECT_EQ(handed.degree(u), lazy.degree(u)) << "node " << u;
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(handed.has_edge(u, v), lazy.has_edge(u, v))
          << u << "-" << v;
    }
  }
  const Snapshot::CsrView view = handed.csr();
  EXPECT_EQ(std::vector<std::uint32_t>(view.offsets, view.offsets + 7),
            (std::vector<std::uint32_t>{0, 2, 4, 6, 7, 8, 8}));
}

TEST(Snapshot, ProducerCsrIsReadAsHandedAndMutationsRebuild) {
  // Row 0 handed in descending order, which the lazy build would never
  // make: reading it back shows the handed CSR is used, not rebuilt.
  Snapshot s(3);
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {0, 2}};
  std::vector<std::uint32_t> offsets = {0, 2, 3, 4};
  std::vector<NodeId> neighbors = {2, 1, 0, 0};
  s.swap_edges_and_csr(edges, offsets, neighbors);
  auto row = s.neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{2, 1}));

  // add_edge falls back to the lazy build over the edge buffer.
  s.add_edge(1, 2);
  row = s.neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(s.has_edge(1, 2));
  EXPECT_EQ(s.degree(2), 2u);

  // So do clear and reset.
  edges = {{0, 1}};
  offsets = {0, 1, 2, 2};
  neighbors = {1, 0};
  s.swap_edges_and_csr(edges, offsets, neighbors);
  s.clear();
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_EQ(s.degree(0), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
  edges = {{0, 1}};
  offsets = {0, 1, 2, 2};
  neighbors = {1, 0};
  s.swap_edges_and_csr(edges, offsets, neighbors);
  s.reset(5);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.degree(4), 0u);
  EXPECT_TRUE(s.edges().empty());
  s.add_edge(3, 4);
  EXPECT_EQ(s.degree(4), 1u);
  EXPECT_TRUE(s.has_edge(4, 3));
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
