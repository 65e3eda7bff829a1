// Tests for the collision-prone radio broadcast protocol.

#include <gtest/gtest.h>

#include "core/fixed_graphs.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"
#include "protocols/radio_broadcast.hpp"

namespace megflood {
namespace {

TEST(RadioBroadcast, Validation) {
  FixedDynamicGraph d(path_graph(3));
  RadioBroadcastProcess radio(1.0);
  EXPECT_THROW((void)run_process(d, radio, 9, 10, 1), std::out_of_range);
  EXPECT_THROW((void)RadioBroadcastProcess(0.0), std::invalid_argument);
  EXPECT_THROW((void)RadioBroadcastProcess(1.5), std::invalid_argument);
}

TEST(RadioBroadcast, PathGraphNoCollisions) {
  // On a path from an endpoint, each uninformed node always hears exactly
  // one informed neighbor: identical to flooding.
  FixedDynamicGraph d(path_graph(6));
  RadioBroadcastProcess radio(1.0);
  const ProcessResult r = run_process(d, radio, 0, 100, 1);
  ASSERT_TRUE(r.flood.completed);
  EXPECT_EQ(r.flood.rounds, 5u);
  EXPECT_EQ(r.metrics.at("collisions"), 0.0);
}

TEST(RadioBroadcast, MidPathSourceCollidesAtTheEnds) {
  // Source in the middle of a 5-path: the two frontiers never collide
  // (they move apart); still completes like flooding.
  FixedDynamicGraph d(path_graph(5));
  RadioBroadcastProcess radio(1.0);
  const ProcessResult r = run_process(d, radio, 2, 100, 1);
  ASSERT_TRUE(r.flood.completed);
  EXPECT_EQ(r.flood.rounds, 2u);
}

TEST(RadioBroadcast, CompleteGraphSelfJamsAtTauOne) {
  // After round 1 two nodes know the message; from then on every
  // uninformed node hears >= 2 transmitters on K_n: permanent collision.
  // (Round 1: exactly one transmitter, so exactly one new node...
  // actually ALL neighbors hear exactly one transmitter in round 1, so
  // round 1 completes the broadcast on K_n.)
  FixedDynamicGraph d(complete_graph(8));
  RadioBroadcastProcess radio(1.0);
  const ProcessResult r = run_process(d, radio, 0, 10, 1);
  EXPECT_TRUE(r.flood.completed);
  EXPECT_EQ(r.flood.rounds, 1u);
}

TEST(RadioBroadcast, StarWithTwoInformedLeavesJams) {
  // Star: inform the hub and both leaves transmit... construct: source a
  // leaf. Round 1: leaf -> hub (exactly one transmitter). Round 2: leaf
  // and hub transmit; other leaves hear only the hub (leaves are not
  // adjacent to each other) -> they all receive. No jam on a star.
  FixedDynamicGraph d(star_graph(6));
  RadioBroadcastProcess radio(1.0);
  const ProcessResult r = run_process(d, radio, 1, 10, 1);
  ASSERT_TRUE(r.flood.completed);
  EXPECT_EQ(r.flood.rounds, 2u);
}

TEST(RadioBroadcast, CycleJamsPermanentlyAtTauOne) {
  // On a cycle, after the first round the two informed nodes are
  // adjacent; their common uninformed neighbors... trace C4 from node 0:
  // round 1: node 0 transmits; neighbors 1 and 3 both hear one
  // transmitter -> informed. Round 2: nodes 0,1,3 transmit; node 2 hears
  // 1 and 3 -> collision, forever. The deterministic protocol stalls.
  FixedDynamicGraph d(cycle_graph(4));
  RadioBroadcastProcess radio(1.0);
  const ProcessResult r = run_process(d, radio, 0, 200, 1);
  EXPECT_FALSE(r.flood.completed);
  EXPECT_GT(r.metrics.at("collisions"), 0.0);
  EXPECT_EQ(r.flood.informed_counts.back(), 3u);
}

TEST(RadioBroadcast, RandomTauBreaksTheCycleJam) {
  // ALOHA-style tau = 0.5 resolves the C4 deadlock w.h.p.
  FixedDynamicGraph d(cycle_graph(4));
  RadioBroadcastProcess radio(0.5);
  const ProcessResult r = run_process(d, radio, 0, 10000, 3);
  EXPECT_TRUE(r.flood.completed);
}

TEST(RadioBroadcast, WorksOnDynamicGraphs) {
  TwoStateEdgeMEG meg(48, {0.05, 0.4}, 5);  // sparse: few collisions
  RadioBroadcastProcess radio(1.0);
  const ProcessResult r = run_process(meg, radio, 0, 100000, 7);
  EXPECT_TRUE(r.flood.completed);
}

TEST(RadioBroadcast, DeterministicGivenSeed) {
  TwoStateEdgeMEG a(32, {0.1, 0.3}, 9);
  TwoStateEdgeMEG b(32, {0.1, 0.3}, 9);
  RadioBroadcastProcess radio(0.5);
  const ProcessResult ra = run_process(a, radio, 0, 100000, 11);
  const ProcessResult rb = run_process(b, radio, 0, 100000, 11);
  EXPECT_EQ(ra.flood.rounds, rb.flood.rounds);
  EXPECT_EQ(ra.metrics.at("transmissions"), rb.metrics.at("transmissions"));
  EXPECT_EQ(ra.metrics.at("collisions"), rb.metrics.at("collisions"));
}

TEST(RadioBroadcast, NeverFasterThanFlooding) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    TwoStateEdgeMEG a(32, {0.1, 0.3}, seed);
    TwoStateEdgeMEG b(32, {0.1, 0.3}, seed);
    const FloodResult fl = flood(a, 0, 100000);
    RadioBroadcastProcess radio(0.7);
    const ProcessResult ra = run_process(b, radio, 0, 100000, seed + 9);
    ASSERT_TRUE(fl.completed);
    ASSERT_TRUE(ra.flood.completed);
    EXPECT_GE(ra.flood.rounds, fl.rounds);
  }
}

}  // namespace
}  // namespace megflood
