// The done-column skip in flood_all_sources (the per-round delta
// extraction visits only word columns that still hold incomplete
// sources) is a pure optimization: every trajectory must be identical to
// the straightforward path.  The reference here is the retained
// historical all-sources loop (tests/reference_engine.hpp), driven over
// the same recorded snapshot sequence — and the scripted scenarios are
// built so whole columns complete while the run continues, which is
// exactly when the skip path is live.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/flooding.hpp"
#include "core/snapshot.hpp"
#include "meg/edge_meg.hpp"
#include "reference_engine.hpp"

namespace megflood {
namespace {

// Compares flood_all_sources (serial and threaded) against the reference
// per-source loop over the identical snapshot trace.  Below
// kAllSourcesPoolMinWords word columns every thread count runs the serial
// kernel; the Pool* cases below are past it, where 2, 3 and 0 run the
// worker pool and 64 clamps to one worker per column.
void expect_matches_reference(const std::vector<Snapshot>& script,
                              std::size_t n, std::uint64_t max_rounds) {
  std::vector<reference::RefSnapshot> ref_trace;
  ref_trace.reserve(script.size());
  for (const Snapshot& snap : script) {
    ref_trace.push_back(reference::RefSnapshot::from(snap));
  }
  const auto want = reference::ref_all_sources_counts(ref_trace, n, max_rounds);

  for (const std::size_t threads : {1ULL, 2ULL, 3ULL, 0ULL, 64ULL}) {
    ScriptedDynamicGraph graph(script);
    const AllSourcesResult got = flood_all_sources(graph, max_rounds, threads);
    ASSERT_EQ(got.per_source.size(), n);
    for (std::size_t s = 0; s < n; ++s) {
      ASSERT_EQ(got.per_source[s].informed_counts, want[s])
          << "threads " << threads << " source " << s;
      const bool ref_completed = want[s].back() == n;
      ASSERT_EQ(got.per_source[s].completed, ref_completed)
          << "threads " << threads << " source " << s;
    }
  }
}

Snapshot snapshot_of(std::size_t n,
                     const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Snapshot snap;
  snap.reset(n);
  for (const auto& [u, v] : edges) snap.add_edge(u, v);
  return snap;
}

TEST(AllSourcesDoneColumns, StaggeredColumnCompletion) {
  // n = 130 -> 3 word columns.  Every node is adjacent to the low block
  // {0..63}, so sources 0..63 (exactly column 0) complete in round 1
  // while every other source needs round 2: the run's final round
  // executes with column 0 fully done — the skip path — and must still
  // produce the reference trajectories for columns 1 and 2.
  constexpr std::size_t kN = 130;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId v = 0; v < kN; ++v) {
      if (v > s) edges.emplace_back(s, v);
    }
  }
  const std::vector<Snapshot> script(4, snapshot_of(kN, edges));
  expect_matches_reference(script, kN, 8);
}

TEST(AllSourcesDoneColumns, LongTailAfterColumnsComplete) {
  // Column 0 completes in round 1, node 129 is cut off until round 5:
  // several rounds run with one done column and one barely-alive column,
  // then everything completes.  Exercises repeated skip rounds plus the
  // transition back to completion.
  constexpr std::size_t kN = 130;
  std::vector<std::pair<NodeId, NodeId>> low_all;
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId v = 0; v < kN - 1; ++v) {
      if (v > s) low_all.emplace_back(s, v);
    }
  }
  // Rounds 0..3: node 129 isolated; every source reaches the other 129
  // nodes via the low block.  Round 4+: the bridge {0, 129} appears.
  std::vector<Snapshot> script(4, snapshot_of(kN, low_all));
  auto bridged = low_all;
  bridged.emplace_back(0, 129);
  script.push_back(snapshot_of(kN, bridged));
  expect_matches_reference(script, kN, 16);
}

TEST(AllSourcesDoneColumns, BudgetTruncationWithDoneColumns) {
  // The budget expires while column 0 is done and the rest are not; the
  // truncated trajectories must match the reference exactly.
  constexpr std::size_t kN = 130;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId v = 0; v < kN; ++v) {
      if (v > s) edges.emplace_back(s, v);
    }
  }
  // One connected round, then the graph goes empty: sources outside
  // column 0 stall at 65 informed forever.
  std::vector<Snapshot> script;
  script.push_back(snapshot_of(kN, edges));
  script.push_back(snapshot_of(kN, {}));
  expect_matches_reference(script, kN, 6);
}

TEST(AllSourcesDoneColumns, StochasticEdgeMegTrace) {
  // A recorded edge-MEG trace (sparse enough that completion is spread
  // over many rounds, so columns retire at different times), replayed
  // through both paths.
  constexpr std::size_t kN = 192;  // 3 word columns
  constexpr std::uint64_t kRounds = 64;
  TwoStateEdgeMEG meg(kN, {2.0 / kN, 0.4}, 97);
  std::vector<Snapshot> script;
  script.reserve(kRounds);
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    script.push_back(meg.snapshot());
    meg.step();
  }
  expect_matches_reference(script, kN, kRounds);
}

// 41 word columns, one past the pool's minimum.
constexpr std::size_t kPoolNodes = 64 * (kAllSourcesPoolMinWords + 1) - 10;
// A column inside the last block at 2, 3 and 4 workers alike, while
// column 0 sits in the first.
constexpr NodeId kLateColumn = 30;
constexpr NodeId kLateHub = 64 * kLateColumn;

// Adds {hub, v} for every v in [lo, hi) other than the hub.
void add_star(std::vector<std::pair<NodeId, NodeId>>& edges, NodeId hub,
              NodeId lo, NodeId hi) {
  for (NodeId v = lo; v < hi; ++v) {
    if (v != hub) edges.emplace_back(hub, v);
  }
}

// Columns retire in different workers' blocks at different rounds:
//  - E_0 joins column 0 to hub 0 and column kLateColumn to kLateHub;
//  - E_1, a star on hub 0, completes exactly column 0 (round 2);
//  - E_2, a star on kLateHub, completes exactly kLateColumn (round 3);
//  - E_3, a star on hub 0, completes every other source (round 4), or,
//    with `cut_last_node`, leaves the last node out, so every source but
//    the done columns and the last node itself stalls one short of n.
// Every snapshot is a star or two, so the reference stays cheap.
std::vector<Snapshot> pool_staggered_script(bool cut_last_node) {
  constexpr auto n = static_cast<NodeId>(kPoolNodes);
  std::vector<std::pair<NodeId, NodeId>> e0;
  add_star(e0, 0, 0, 64);
  add_star(e0, kLateHub, kLateHub, kLateHub + 64);
  std::vector<std::pair<NodeId, NodeId>> e1;
  add_star(e1, 0, 0, n);
  std::vector<std::pair<NodeId, NodeId>> e2;
  add_star(e2, kLateHub, 0, n);
  std::vector<std::pair<NodeId, NodeId>> e3;
  add_star(e3, 0, 0, cut_last_node ? n - 1 : n);
  return {snapshot_of(n, e0), snapshot_of(n, e1), snapshot_of(n, e2),
          snapshot_of(n, e3)};
}

TEST(AllSourcesDoneColumns, PoolStaggeredColumnCompletion) {
  const std::vector<Snapshot> script = pool_staggered_script(false);
  ScriptedDynamicGraph graph(script);
  const AllSourcesResult all = flood_all_sources(graph, 8, 1);
  ASSERT_TRUE(all.all_completed);
  EXPECT_EQ(all.per_source[63].rounds, 2u);
  EXPECT_EQ(all.per_source[kLateHub + 63].rounds, 3u);
  EXPECT_EQ(all.per_source[64].rounds, 4u);
  expect_matches_reference(script, kPoolNodes, 8);
}

TEST(AllSourcesDoneColumns, PoolBudgetTruncationWithDoneColumns) {
  // The budget expires after column 0 and kLateColumn are done and before
  // the rest complete.
  expect_matches_reference(pool_staggered_script(false), kPoolNodes, 3);
  // The last snapshot is held past the script: a long tail of rounds in
  // which only the stalled sources' columns are scanned, then the budget.
  const std::vector<Snapshot> cut = pool_staggered_script(true);
  ScriptedDynamicGraph graph(cut);
  const AllSourcesResult all = flood_all_sources(graph, 12, 1);
  EXPECT_EQ(all.completed_count, 64 + 64 + 1u);
  expect_matches_reference(cut, kPoolNodes, 12);
}

TEST(AllSourcesDoneColumns, PoolStochasticEdgeMegTrace) {
  constexpr std::uint64_t kRounds = 48;
  TwoStateEdgeMEG meg(kPoolNodes, {2.0 / kPoolNodes, 0.4}, 97);
  std::vector<Snapshot> script;
  script.reserve(kRounds);
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    script.push_back(meg.snapshot());
    meg.step();
  }
  expect_matches_reference(script, kPoolNodes, kRounds);
}

}  // namespace
}  // namespace megflood
