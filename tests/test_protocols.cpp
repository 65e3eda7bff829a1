// Tests for the protocol extensions: randomized k-push (Section 5) and
// parsimonious TTL flooding.

#include <gtest/gtest.h>

#include "core/fixed_graphs.hpp"
#include "core/flooding.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"
#include "protocols/k_push.hpp"
#include "protocols/ttl_flooding.hpp"

namespace megflood {
namespace {

TEST(KPush, ValidationErrors) {
  FixedDynamicGraph d(path_graph(3));
  KPushProcess push(1);
  EXPECT_THROW((void)run_process(d, push, 5, 10, 1), std::out_of_range);
  EXPECT_THROW((void)KPushProcess(0), std::invalid_argument);
}

TEST(KPush, LargeKEqualsFlooding) {
  // k >= max degree: every neighbor is pushed to, identical to flooding.
  const Graph g = grid_2d(4);
  FixedDynamicGraph a(g), b(g);
  const FloodResult fl = flood(a, 0, 100);
  KPushProcess push(100);
  const FloodResult kp = run_process(b, push, 0, 100, 7).flood;
  ASSERT_TRUE(fl.completed);
  ASSERT_TRUE(kp.completed);
  EXPECT_EQ(fl.rounds, kp.rounds);
  EXPECT_EQ(fl.informed_counts, kp.informed_counts);
}

TEST(KPush, SmallKIsSlowerOrEqualOnStar) {
  // On a star from the hub, flooding takes 1 round; 1-push needs ~n-1.
  FixedDynamicGraph a(star_graph(10)), b(star_graph(10));
  const FloodResult fl = flood(a, 0, 1000);
  KPushProcess push(1);
  const FloodResult kp = run_process(b, push, 0, 1000, 11).flood;
  ASSERT_TRUE(fl.completed);
  ASSERT_TRUE(kp.completed);
  EXPECT_EQ(fl.rounds, 1u);
  EXPECT_GT(kp.rounds, fl.rounds);
}

TEST(KPush, CompletesOnDynamicGraph) {
  TwoStateEdgeMEG meg(48, {0.2, 0.2}, 3);
  KPushProcess push(2);
  const FloodResult r = run_process(meg, push, 0, 100000, 13).flood;
  EXPECT_TRUE(r.completed);
}

TEST(KPush, DeterministicGivenSeed) {
  TwoStateEdgeMEG a(32, {0.2, 0.2}, 5);
  TwoStateEdgeMEG b(32, {0.2, 0.2}, 5);
  KPushProcess push(2);
  const FloodResult ra = run_process(a, push, 0, 10000, 21).flood;
  const FloodResult rb = run_process(b, push, 0, 10000, 21).flood;
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.informed_counts, rb.informed_counts);
}

TEST(RandomSubsetOverlay, SubsetOfInnerEdges) {
  TwoStateEdgeMEG inner(24, {0.4, 0.2}, 7);
  RandomSubsetOverlay overlay(inner, 2, 9);
  for (int t = 0; t < 10; ++t) {
    const Snapshot& in = inner.snapshot();
    const Snapshot& out = overlay.snapshot();
    EXPECT_LE(out.num_edges(), in.num_edges());
    for (const auto& [u, v] : out.edges()) {
      EXPECT_TRUE(in.has_edge(u, v)) << u << "," << v;
    }
    overlay.step();  // advances inner too
  }
}

TEST(RandomSubsetOverlay, DegreeFloorRespected) {
  // Every node with inner degree >= 1 keeps at least one incident edge
  // (it selects at least one itself).
  TwoStateEdgeMEG inner(24, {0.5, 0.2}, 11);
  RandomSubsetOverlay overlay(inner, 1, 13);
  for (int t = 0; t < 5; ++t) {
    const Snapshot& in = inner.snapshot();
    const Snapshot& out = overlay.snapshot();
    for (NodeId v = 0; v < 24; ++v) {
      if (in.degree(v) > 0) {
        EXPECT_GE(out.degree(v), 1u);
      }
    }
    overlay.step();
  }
}

TEST(RandomSubsetOverlay, LargeKKeepsEverything) {
  TwoStateEdgeMEG inner(16, {0.3, 0.3}, 15);
  RandomSubsetOverlay overlay(inner, 1000, 17);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(overlay.snapshot().num_edges(), inner.snapshot().num_edges());
    overlay.step();
  }
}

TEST(RandomSubsetOverlay, FloodingOnOverlayCompletes) {
  TwoStateEdgeMEG inner(32, {0.3, 0.3}, 19);
  RandomSubsetOverlay overlay(inner, 2, 21);
  const FloodResult r = flood(overlay, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(TtlFlood, ValidationErrors) {
  FixedDynamicGraph d(path_graph(3));
  TtlFloodingProcess ttl(1);
  EXPECT_THROW((void)run_process(d, ttl, 9, 10, 0), std::out_of_range);
  EXPECT_THROW((void)TtlFloodingProcess(0), std::invalid_argument);
}

TEST(TtlFlood, LargeTtlMatchesFlooding) {
  const Graph g = grid_2d(4);
  FixedDynamicGraph a(g), b(g);
  const FloodResult fl = flood(a, 0, 1000);
  TtlFloodingProcess ttl(1000);
  const ProcessResult tf = run_process(b, ttl, 0, 1000, 0);
  ASSERT_TRUE(fl.completed);
  ASSERT_TRUE(tf.flood.completed);
  EXPECT_EQ(fl.rounds, tf.flood.rounds);
}

TEST(TtlFlood, TinyTtlDiesOutOnSparseDynamicGraph) {
  // With ttl = 1 on a very sparse edge-MEG the protocol usually stalls:
  // relayers expire before meeting anyone.  Detect at least one stall
  // across seeds (completion is possible but rare).
  int stalled = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    TwoStateEdgeMEG meg(64, {0.0005, 0.5}, seed);
    TtlFloodingProcess ttl(1);
    const ProcessResult r = run_process(meg, ttl, 0, 20000, 0);
    if (!r.flood.completed) ++stalled;
  }
  EXPECT_GT(stalled, 0);
}

TEST(TtlFlood, TransmissionsCounted) {
  FixedDynamicGraph d(path_graph(4));
  TtlFloodingProcess ttl(1000);
  const ProcessResult r = run_process(d, ttl, 0, 100, 0);
  ASSERT_TRUE(r.flood.completed);
  EXPECT_GT(r.metrics.at("transmissions"), 0.0);
  // With unlimited ttl every informed node transmits every round:
  // rounds 1+2+3 informed transmitters = at least 6 transmissions.
  EXPECT_GE(r.metrics.at("transmissions"), 6.0);
}

TEST(TtlFlood, SmallerTtlFewerTransmissions) {
  const Graph g = grid_2d(5);
  FixedDynamicGraph a(g), b(g);
  TtlFloodingProcess ttl_big(1000), ttl_small(2);
  const ProcessResult big = run_process(a, ttl_big, 0, 1000, 0);
  const ProcessResult small = run_process(b, ttl_small, 0, 1000, 0);
  ASSERT_TRUE(big.flood.completed);
  // On a static connected graph, ttl = 2 still completes (the frontier
  // always has fresh relays) but transmits far less.
  ASSERT_TRUE(small.flood.completed);
  EXPECT_LT(small.metrics.at("transmissions"),
            big.metrics.at("transmissions"));
}

// Property: k-push rounds are non-increasing in k (statistically; we use
// a fixed seed and check a coarse ordering k=1 >= k=4 on a star).
class KPushMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KPushMonotone, MoreFanoutFasterOnStar) {
  FixedDynamicGraph a(star_graph(16)), b(star_graph(16));
  KPushProcess push1(1), push4(4);
  const FloodResult k1 = run_process(a, push1, 0, 1000, GetParam()).flood;
  const FloodResult k4 = run_process(b, push4, 0, 1000, GetParam()).flood;
  ASSERT_TRUE(k1.completed);
  ASSERT_TRUE(k4.completed);
  EXPECT_GE(k1.rounds, k4.rounds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KPushMonotone,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace megflood
