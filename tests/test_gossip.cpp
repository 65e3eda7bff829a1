// Tests for randomized gossip (push / pull / push-pull) on static and
// dynamic graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"
#include "mobility/colocation.hpp"
#include "protocols/gossip.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(Gossip, BadSourceThrows) {
  FixedDynamicGraph d(path_graph(3));
  GossipProcess push(GossipMode::kPush);
  EXPECT_THROW((void)run_process(d, push, 9, 10, 1), std::out_of_range);
}

TEST(Gossip, PushCompletesOnCompleteGraph) {
  FixedDynamicGraph d(complete_graph(32));
  GossipProcess push(GossipMode::kPush);
  const ProcessResult r = run_process(d, push, 0, 1000, 3);
  ASSERT_TRUE(r.flood.completed);
  // Push on K_n takes ~log2 n + ln n rounds; allow slack.
  EXPECT_LE(r.flood.rounds, 40u);
  EXPECT_GE(r.flood.rounds, 5u);
}

TEST(Gossip, PushPullFasterOrEqualThanPush) {
  double push_total = 0.0, pp_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FixedDynamicGraph a(complete_graph(64)), b(complete_graph(64));
    GossipProcess push_process(GossipMode::kPush);
    GossipProcess pp_process(GossipMode::kPushPull);
    const ProcessResult push = run_process(a, push_process, 0, 1000, seed);
    const ProcessResult pp = run_process(b, pp_process, 0, 1000, seed);
    ASSERT_TRUE(push.flood.completed);
    ASSERT_TRUE(pp.flood.completed);
    push_total += static_cast<double>(push.flood.rounds);
    pp_total += static_cast<double>(pp.flood.rounds);
  }
  EXPECT_LE(pp_total, push_total);
}

TEST(Gossip, PullAloneCompletesOnCompleteGraph) {
  FixedDynamicGraph d(complete_graph(32));
  GossipProcess pull(GossipMode::kPull);
  const ProcessResult r = run_process(d, pull, 0, 10000, 5);
  EXPECT_TRUE(r.flood.completed);
}

TEST(Gossip, NoChainingWithinRound) {
  // Path 0-1-2, push mode: at least 2 rounds needed from source 0.
  FixedDynamicGraph d(path_graph(3));
  GossipProcess push_pull(GossipMode::kPushPull);
  const ProcessResult r = run_process(d, push_pull, 0, 100, 7);
  ASSERT_TRUE(r.flood.completed);
  EXPECT_GE(r.flood.rounds, 2u);
}

TEST(Gossip, ContactsCounted) {
  FixedDynamicGraph d(complete_graph(16));
  GossipProcess push(GossipMode::kPush);
  const ProcessResult r = run_process(d, push, 0, 1000, 9);
  ASSERT_TRUE(r.flood.completed);
  EXPECT_GT(r.metrics.at("contacts"), 0.0);
  // Push contacts = sum over rounds of informed counts (everyone
  // informed before the final round contacts each round).
  std::uint64_t expected = 0;
  for (std::size_t t = 0; t + 1 < r.flood.informed_counts.size(); ++t) {
    expected += r.flood.informed_counts[t];
  }
  EXPECT_EQ(r.metrics.at("contacts"), static_cast<double>(expected));
}

TEST(Gossip, PullContactsComeFromUninformed) {
  FixedDynamicGraph d(complete_graph(16));
  GossipProcess pull(GossipMode::kPull);
  const ProcessResult r = run_process(d, pull, 0, 1000, 11);
  ASSERT_TRUE(r.flood.completed);
  std::uint64_t expected = 0;
  for (std::size_t t = 0; t + 1 < r.flood.informed_counts.size(); ++t) {
    expected += 16 - r.flood.informed_counts[t];
  }
  EXPECT_EQ(r.metrics.at("contacts"), static_cast<double>(expected));
}

TEST(Gossip, WorksOnDynamicGraph) {
  TwoStateEdgeMEG meg(48, {0.2, 0.2}, 13);
  GossipProcess push_pull(GossipMode::kPushPull);
  const ProcessResult r = run_process(meg, push_pull, 0, 100000, 15);
  EXPECT_TRUE(r.flood.completed);
}

TEST(Gossip, DeterministicGivenSeeds) {
  TwoStateEdgeMEG a(32, {0.2, 0.2}, 5);
  TwoStateEdgeMEG b(32, {0.2, 0.2}, 5);
  GossipProcess push(GossipMode::kPush);
  const ProcessResult ra = run_process(a, push, 0, 10000, 21);
  const ProcessResult rb = run_process(b, push, 0, 10000, 21);
  EXPECT_EQ(ra.flood.rounds, rb.flood.rounds);
  EXPECT_EQ(ra.metrics.at("contacts"), rb.metrics.at("contacts"));
}

// A round over the group form of a co-location snapshot must be the
// round over its keys-form copy (whose neighbours come from the CSR):
// the same marks, the same `newly` list and the same generator state,
// in every mode and at every mix of informed and uninformed nodes.
TEST(Gossip, GroupRowsPickLikeTheCsr) {
  constexpr std::size_t kNodes = 300;
  for (const GossipMode mode :
       {GossipMode::kPush, GossipMode::kPull, GossipMode::kPushPull}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng layout(seed);
      // Crowded points, sparse ones with singletons, and a pile-up.
      const std::uint32_t points = seed % 3 == 0 ? 1 : (seed % 3 == 1 ? 40 : 600);
      std::vector<std::uint32_t> point(kNodes);
      for (auto& p : point) {
        p = static_cast<std::uint32_t>(layout.uniform_int(points));
      }
      ColocationBuilder builder;
      Snapshot grouped(kNodes);
      builder.build(grouped, std::size_t{points} + 7,
                    [&point](std::uint32_t i) { return point[i]; });
      ASSERT_NE(grouped.groups(), nullptr);
      const Snapshot keyed = grouped;
      ASSERT_EQ(keyed.groups(), nullptr);

      std::vector<char> marks(kNodes);
      for (auto& mark : marks) {
        mark = static_cast<char>(layout.uniform_int(2));
      }
      std::vector<char> marks_grouped = marks, marks_keyed = marks;
      std::vector<NodeId> newly_grouped, newly_keyed;
      Rng rng_grouped(seed + 100), rng_keyed(seed + 100);
      GossipProcess on_groups(mode), on_keys(mode);
      on_groups.begin_trial(kNodes, 0);
      on_keys.begin_trial(kNodes, 0);
      on_groups.round(grouped, marks_grouped, newly_grouped, rng_grouped);
      on_keys.round(keyed, marks_keyed, newly_keyed, rng_keyed);
      EXPECT_EQ(marks_grouped, marks_keyed) << "seed " << seed;
      EXPECT_EQ(newly_grouped, newly_keyed) << "seed " << seed;
      EXPECT_EQ(rng_grouped(), rng_keyed()) << "seed " << seed;
      MetricsBag contacts_grouped, contacts_keyed;
      on_groups.metrics(contacts_grouped);
      on_keys.metrics(contacts_keyed);
      EXPECT_EQ(contacts_grouped, contacts_keyed) << "seed " << seed;
    }
  }
}

// Property: per mode, gossip rounds >= flooding rounds on the same
// realization (gossip uses a subset of flooding's transmissions).
class GossipVsFlooding : public ::testing::TestWithParam<GossipMode> {};

TEST_P(GossipVsFlooding, NeverFasterThanFlooding) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    TwoStateEdgeMEG a(32, {0.15, 0.15}, seed);
    TwoStateEdgeMEG b(32, {0.15, 0.15}, seed);
    const FloodResult fl = flood(a, 0, 100000);
    GossipProcess gossip(GetParam());
    const ProcessResult go = run_process(b, gossip, 0, 100000, seed + 50);
    ASSERT_TRUE(fl.completed);
    ASSERT_TRUE(go.flood.completed);
    EXPECT_GE(go.flood.rounds, fl.rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, GossipVsFlooding,
                         ::testing::Values(GossipMode::kPush,
                                           GossipMode::kPull,
                                           GossipMode::kPushPull));

}  // namespace
}  // namespace megflood
