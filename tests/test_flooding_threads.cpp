// Bit-identity of the threaded all-sources flooding kernel: the word-
// column partition splits per-source computations that never interact, so
// flood_all_sources must return byte-for-byte identical results for every
// thread count — including the trajectory vectors, the budget-truncated
// (incomplete) case, and thread counts that don't divide the word count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/flooding.hpp"
#include "core/snapshot.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"
#include "mobility/random_waypoint.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

void expect_same_results(const AllSourcesResult& a, const AllSourcesResult& b,
                         const char* what) {
  EXPECT_EQ(a.max_rounds, b.max_rounds) << what;
  EXPECT_EQ(a.min_rounds, b.min_rounds) << what;
  EXPECT_EQ(a.completed_count, b.completed_count) << what;
  EXPECT_EQ(a.all_completed, b.all_completed) << what;
  ASSERT_EQ(a.per_source.size(), b.per_source.size()) << what;
  for (std::size_t s = 0; s < a.per_source.size(); ++s) {
    ASSERT_EQ(a.per_source[s].completed, b.per_source[s].completed)
        << what << " source " << s;
    ASSERT_EQ(a.per_source[s].rounds, b.per_source[s].rounds)
        << what << " source " << s;
    ASSERT_EQ(a.per_source[s].informed_counts,
              b.per_source[s].informed_counts)
        << what << " source " << s;
  }
}

template <typename MakeGraph>
void expect_thread_count_invariance(MakeGraph&& make_graph,
                                    std::uint64_t max_rounds,
                                    const char* what) {
  const auto graph_serial = make_graph();
  const AllSourcesResult serial =
      flood_all_sources(*graph_serial, max_rounds, /*threads=*/1);
  // 2 and 3 exercise uneven word splits; 0 resolves to the hardware
  // thread count (whatever it is on the host).
  for (std::size_t threads : {2ULL, 3ULL, 0ULL}) {
    const auto graph = make_graph();
    const AllSourcesResult threaded =
        flood_all_sources(*graph, max_rounds, threads);
    expect_same_results(serial, threaded, what);
    // Both kernels must have advanced the model identically too (the
    // model steps exactly once between two executed rounds).
    EXPECT_EQ(graph_serial->time(), graph->time()) << what;
  }
}

TEST(FloodAllSourcesThreads, BitIdenticalOnEdgeMeg) {
  // n = 200 -> 4 words, below the pool's column minimum, so every
  // thread count runs serially; BitIdenticalInTheWorkerPool splits.
  expect_thread_count_invariance(
      [] {
        return std::make_unique<TwoStateEdgeMEG>(
            200, TwoStateParams{2.0 / 200.0, 0.3}, 7);
      },
      4096, "edge_meg complete");
}

TEST(FloodAllSourcesThreads, BitIdenticalWhenBudgetTruncates) {
  // A budget far below the flooding time leaves every source incomplete;
  // the truncated trajectories must still agree bit for bit.
  expect_thread_count_invariance(
      [] {
        return std::make_unique<TwoStateEdgeMEG>(
            192, TwoStateParams{0.2 / 192.0, 0.9}, 11);
      },
      3, "edge_meg truncated");
}

TEST(FloodAllSourcesThreads, BitIdenticalOnFixedTopology) {
  // Deterministic graph: a path has sources of very different flooding
  // times, so done-source bookkeeping diverges early between blocks.
  expect_thread_count_invariance(
      [] { return std::make_unique<FixedDynamicGraph>(path_graph(130)); },
      1000, "fixed path");
}

TEST(FloodAllSourcesThreads, BitIdenticalOnLazyWaypoint) {
  // The waypoint model builds its snapshot on the first read after a
  // step, so the pool must read it once per round, serially; under TSan a
  // per-worker read would race.  n = 200 -> 4 words (serial; the pool
  // case is in BitIdenticalInTheWorkerPool).
  const auto make = [] {
    WaypointParams p;
    p.side_length = 14.0;
    p.v_min = 0.5;
    p.v_max = 1.0;
    p.radius = 1.0;
    p.resolution = 32;
    return std::make_unique<RandomWaypointModel>(200, p, 9);
  };
  const auto serial_graph = make();
  const AllSourcesResult serial = flood_all_sources(*serial_graph, 4096, 1);
  EXPECT_GT(serial.completed_count, 0u);
  for (std::size_t threads : {2ULL, 4ULL}) {
    const auto graph = make();
    expect_same_results(serial, flood_all_sources(*graph, 4096, threads),
                        "lazy waypoint");
    EXPECT_EQ(serial_graph->time(), graph->time());
    EXPECT_EQ(serial_graph->snapshot().edge_buffer(),
              graph->snapshot().edge_buffer());
  }
}

// A 256-node script of random sparse snapshots, cycled: no single
// snapshot is connected, so floods need many rounds.
ScriptedDynamicGraph random_script(std::uint64_t seed) {
  constexpr NodeId kN = 256;
  Rng rng(seed);
  std::vector<Snapshot> script;
  for (int t = 0; t < 5; ++t) {
    Snapshot snap(kN);
    std::vector<char> used(kN * kN, 0);
    for (int e = 0; e < 160; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(kN));
      const auto v = static_cast<NodeId>(rng.uniform_int(kN));
      if (u == v || used[u * kN + v]) continue;
      used[u * kN + v] = used[v * kN + u] = 1;
      snap.add_edge(u, v);
    }
    script.push_back(std::move(snap));
  }
  return ScriptedDynamicGraph(std::move(script), /*cycle=*/true);
}

TEST(FloodAllSourcesThreads, NoStepAfterTheLastRound) {
  // Round t reads E_t and the graph steps only between rounds, like
  // flood(): R executed rounds leave time() at R - 1, at every thread
  // count (n = 256 -> 4 words, so every count runs serially; the pool's
  // step count is checked in BitIdenticalInTheWorkerPool).  R is the
  // completing round when every source finishes, else the budget.
  for (const std::uint64_t budget : {4ULL, 1000ULL}) {
    ScriptedDynamicGraph serial_graph = random_script(21);
    const AllSourcesResult serial =
        flood_all_sources(serial_graph, budget, 1);
    const std::uint64_t rounds =
        serial.all_completed ? serial.max_rounds : budget;
    EXPECT_EQ(serial.all_completed, budget == 1000);
    EXPECT_GT(rounds, 1u);
    EXPECT_EQ(serial_graph.time(), rounds - 1) << "budget " << budget;
    for (const std::size_t threads : {2ULL, 4ULL}) {
      ScriptedDynamicGraph graph = random_script(21);
      expect_same_results(serial, flood_all_sources(graph, budget, threads),
                          "scripted");
      EXPECT_EQ(graph.time(), rounds - 1)
          << "budget " << budget << " threads " << threads;
    }
  }
}

TEST(FloodAllSourcesThreads, ThreadCountsBeyondWordsClamp) {
  // n = 70 -> 2 words; asking for 16 workers must clamp, run, and agree
  // (serially: 2 words are below the pool's minimum; the pool's clamp
  // is in PoolZeroBudgetAndClampedWorkers).
  const auto make = [] {
    return std::make_unique<TwoStateEdgeMEG>(70, TwoStateParams{0.05, 0.3},
                                             3);
  };
  const auto a = make();
  const auto b = make();
  expect_same_results(flood_all_sources(*a, 2048, 1),
                      flood_all_sources(*b, 2048, 16), "clamped workers");
}

TEST(FloodAllSourcesThreads, SingleNodeAndZeroBudget) {
  // Degenerate corners must not deadlock the pool: n = 1 (no rounds to
  // run) and max_rounds = 0 (stop before the first round).  Both sizes
  // run serially; PoolZeroBudgetAndClampedWorkers has the pool's budget 0.
  Snapshot one(1);
  for (std::size_t threads : {1ULL, 2ULL, 0ULL}) {
    ScriptedDynamicGraph graph({one});
    const AllSourcesResult r = flood_all_sources(graph, 16, threads);
    EXPECT_TRUE(r.all_completed);
    EXPECT_EQ(r.per_source[0].rounds, 0u);
  }
  for (std::size_t threads : {1ULL, 2ULL, 0ULL}) {
    TwoStateEdgeMEG meg(80, TwoStateParams{0.1, 0.3}, 5);
    const AllSourcesResult r = flood_all_sources(meg, 0, threads);
    EXPECT_EQ(r.completed_count, 0u);
    EXPECT_FALSE(r.all_completed);
  }
}

// One word column past the pool's minimum: 2, 3 and 4 workers all split
// the 41 columns unevenly.  The tests above run below the minimum, where
// every thread count takes the serial kernel.
constexpr std::size_t kPoolNodes = 64 * (kAllSourcesPoolMinWords + 1) - 10;

TEST(FloodAllSourcesThreads, PoolStartsAtAMinimumOfWordColumns) {
  constexpr std::size_t kMin = kAllSourcesPoolMinWords;
  // n = 64 * c nodes fill exactly c word columns.
  EXPECT_EQ(all_sources_workers(4, 1), 1u);
  EXPECT_EQ(all_sources_workers(16, 64 * (kMin - 1)), 1u);
  EXPECT_EQ(all_sources_workers(4, 64 * (kMin - 1) + 1), 4u);
  EXPECT_EQ(all_sources_workers(2, 64 * kMin), 2u);
  EXPECT_EQ(all_sources_workers(1, 64 * 100 * kMin), 1u);
  EXPECT_GE(all_sources_workers(0, 64 * 100 * kMin), 1u);
  EXPECT_EQ(all_sources_workers(16, kPoolNodes), 16u);
  EXPECT_EQ(all_sources_workers(64, kPoolNodes), kMin + 1);
}

TEST(FloodAllSourcesThreads, BitIdenticalInTheWorkerPool) {
  expect_thread_count_invariance(
      [] {
        return std::make_unique<TwoStateEdgeMEG>(
            kPoolNodes, TwoStateParams{2.0 / kPoolNodes, 0.3}, 7);
      },
      4096, "pool edge_meg complete");
  expect_thread_count_invariance(
      [] {
        return std::make_unique<TwoStateEdgeMEG>(
            kPoolNodes, TwoStateParams{0.2 / kPoolNodes, 0.9}, 11);
      },
      3, "pool edge_meg truncated");
  // The lazy snapshot again: the pool must read it once per round,
  // serially, or TSan sees the workers race on the first read.
  const auto make = [] {
    WaypointParams p;
    p.side_length = 56.0;
    p.v_min = 0.5;
    p.v_max = 1.0;
    p.radius = 1.0;
    p.resolution = 128;
    return std::make_unique<RandomWaypointModel>(kPoolNodes, p, 9);
  };
  const auto serial_graph = make();
  const AllSourcesResult serial = flood_all_sources(*serial_graph, 64, 1);
  for (std::size_t threads : {2ULL, 3ULL}) {
    const auto graph = make();
    expect_same_results(serial, flood_all_sources(*graph, 64, threads),
                        "pool lazy waypoint");
    EXPECT_EQ(serial_graph->time(), graph->time());
    EXPECT_EQ(serial_graph->snapshot().edge_buffer(),
              graph->snapshot().edge_buffer());
  }
}

TEST(FloodAllSourcesThreads, PoolZeroBudgetAndClampedWorkers) {
  // max_rounds = 0 at a size that would start the pool: no round runs,
  // the model does not step, and every source stays at its start count.
  const TwoStateParams params{2.0 / kPoolNodes, 0.3};
  TwoStateEdgeMEG serial_graph(kPoolNodes, params, 5);
  const AllSourcesResult serial = flood_all_sources(serial_graph, 0, 1);
  EXPECT_EQ(serial.completed_count, 0u);
  EXPECT_EQ(serial.per_source[0].informed_counts,
            std::vector<std::size_t>{1});
  for (std::size_t threads : {2ULL, 0ULL}) {
    TwoStateEdgeMEG meg(kPoolNodes, params, 5);
    expect_same_results(serial, flood_all_sources(meg, 0, threads),
                        "pool zero budget");
    EXPECT_EQ(meg.time(), 0u);
  }
  // A request beyond the word count runs one worker per column.
  ASSERT_EQ(all_sources_workers(64, kPoolNodes), kAllSourcesPoolMinWords + 1);
  TwoStateEdgeMEG a(kPoolNodes, params, 3);
  TwoStateEdgeMEG b(kPoolNodes, params, 3);
  expect_same_results(flood_all_sources(a, 2048, 1),
                      flood_all_sources(b, 2048, 64), "pool clamped workers");
  EXPECT_EQ(a.time(), b.time());
}

}  // namespace
}  // namespace megflood
