// Tests for temporal-structure analysis (T-interval connectivity, union
// windows, snapshot connectivity stats).

#include <gtest/gtest.h>

#include "analysis/temporal.hpp"
#include "core/trace.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

Snapshot snap_with(std::size_t n,
                   std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  Snapshot s(n);
  for (const auto& [u, v] : edges) s.add_edge(u, v);
  return s;
}

TEST(TIntervalConnectivity, StaticConnectedIsFullLength) {
  std::vector<Snapshot> trace(4, snap_with(3, {{0, 1}, {1, 2}}));
  EXPECT_EQ(t_interval_connectivity(trace), 4u);
}

TEST(TIntervalConnectivity, ZeroWhenSnapshotsDisconnected) {
  std::vector<Snapshot> trace;
  trace.push_back(snap_with(3, {{0, 1}}));  // node 2 isolated
  trace.push_back(snap_with(3, {{0, 1}, {1, 2}}));
  EXPECT_EQ(t_interval_connectivity(trace), 0u);
}

TEST(TIntervalConnectivity, DropsWhenSharedSpanningTreeVanishes) {
  // Both snapshots are connected but share only the edge 0-1, so the
  // 2-window intersection is disconnected: T = 1.
  std::vector<Snapshot> trace;
  trace.push_back(snap_with(4, {{0, 1}, {1, 2}, {2, 3}}));
  trace.push_back(snap_with(4, {{0, 1}, {1, 3}, {3, 2}}));
  // Intersection: {0-1, 2-3} in first? second has 2-3 via {3,2} yes.
  // Shared: 0-1 and 2-3 -> disconnected (no 1-2 bridge).
  EXPECT_EQ(t_interval_connectivity(trace), 1u);
}

TEST(SmallestConnectingWindow, OneForConnectedSnapshots) {
  std::vector<Snapshot> trace(3, snap_with(3, {{0, 1}, {1, 2}}));
  EXPECT_EQ(smallest_connecting_window(trace), 1u);
}

TEST(SmallestConnectingWindow, GrowsWithFragmentation) {
  // Edges rotate: each snapshot has one edge of the triangle; any two
  // consecutive snapshots connect the triangle.
  std::vector<Snapshot> trace;
  trace.push_back(snap_with(3, {{0, 1}}));
  trace.push_back(snap_with(3, {{1, 2}}));
  trace.push_back(snap_with(3, {{2, 0}}));
  trace.push_back(snap_with(3, {{0, 1}}));
  EXPECT_EQ(smallest_connecting_window(trace), 2u);
}

TEST(SmallestConnectingWindow, UnreachableIsSizeMax) {
  // Node 2 never touches an edge.
  std::vector<Snapshot> trace;
  trace.push_back(snap_with(3, {{0, 1}}));
  trace.push_back(snap_with(3, {{0, 1}}));
  EXPECT_EQ(smallest_connecting_window(trace), SIZE_MAX);
}

TEST(SnapshotConnectivity, MixedTrace) {
  std::vector<Snapshot> trace;
  trace.push_back(snap_with(4, {{0, 1}, {1, 2}, {2, 3}}));  // connected
  trace.push_back(snap_with(4, {{0, 1}}));  // 2 isolated nodes
  const SnapshotConnectivity c = snapshot_connectivity(trace);
  EXPECT_DOUBLE_EQ(c.connected_fraction, 0.5);
  EXPECT_DOUBLE_EQ(c.mean_isolated_fraction, 0.25);  // (0 + 2/4) / 2
  EXPECT_DOUBLE_EQ(c.mean_largest_component_fraction, 0.75);  // (1 + .5)/2
}

TEST(SnapshotConnectivity, SparseEdgeMegMostlyDisconnected) {
  // The paper's motivating regime: single snapshots of a sparse MEG are
  // essentially never connected and have many isolated nodes, yet
  // (verified elsewhere) flooding completes quickly.
  const std::size_t n = 64;
  TwoStateEdgeMEG meg(n, {1.0 / static_cast<double>(n * 2), 0.3}, 7);
  const auto trace = record_trace(meg, 100);
  const SnapshotConnectivity c = snapshot_connectivity(trace);
  EXPECT_LT(c.connected_fraction, 0.01);
  EXPECT_GT(c.mean_isolated_fraction, 0.2);
}

TEST(EmptyTraceThrows, AllAnalyses) {
  const std::vector<Snapshot> empty;
  EXPECT_THROW((void)t_interval_connectivity(empty), std::invalid_argument);
  EXPECT_THROW((void)smallest_connecting_window(empty),
               std::invalid_argument);
  EXPECT_THROW((void)snapshot_connectivity(empty), std::invalid_argument);
}

}  // namespace
}  // namespace megflood
