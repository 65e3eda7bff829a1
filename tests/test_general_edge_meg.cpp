// Tests for the generalized edge-MEG (arbitrary hidden chain + chi map,
// paper Appendix A).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/flooding.hpp"
#include "meg/general_edge_meg.hpp"
#include "step_hash.hpp"

namespace megflood {
namespace {

TEST(GeneralEdgeMEG, ValidationErrors) {
  auto link = make_bursty_link(0.1, 0.5, 0.2);
  EXPECT_THROW(GeneralEdgeMEG(1, link.chain, link.chi, 0),
               std::invalid_argument);
  EXPECT_THROW(GeneralEdgeMEG(4, link.chain, {true}, 0),
               std::invalid_argument);
}

TEST(GeneralEdgeMEG, TwoStateSpecialCaseDensity) {
  // chi = {off: false, on: true} over a 2-state chain reproduces the
  // classic edge-MEG's stationary density p/(p+q).
  const double p = 0.1, q = 0.3;
  DenseChain chain({{1.0 - p, p}, {q, 1.0 - q}});
  GeneralEdgeMEG meg(48, chain, {false, true}, 5);
  EXPECT_NEAR(meg.stationary_edge_probability(), 0.25, 1e-9);
  double avg = 0.0;
  constexpr int kSamples = 40;
  for (int s = 0; s < kSamples; ++s) {
    for (int t = 0; t < 10; ++t) meg.step();
    avg += static_cast<double>(meg.snapshot().num_edges());
  }
  const double pairs = 48.0 * 47.0 / 2.0;
  EXPECT_NEAR(avg / kSamples / pairs, 0.25, 0.03);
}

TEST(GeneralEdgeMEG, BurstyLinkAlpha) {
  auto link = make_bursty_link(0.2, 0.5, 0.25);
  GeneralEdgeMEG meg(32, link.chain, link.chi, 9);
  // Stationary of off->warming->on cycle with rates (w, r, d):
  // pi ∝ (1/w, 1/r, 1/d) -> pi_on = (1/d) / (1/w + 1/r + 1/d).
  const double expected = (1.0 / 0.25) / (1.0 / 0.2 + 1.0 / 0.5 + 1.0 / 0.25);
  EXPECT_NEAR(meg.stationary_edge_probability(), expected, 1e-6);
}

TEST(GeneralEdgeMEG, DutyCycleAlphaIsOnFraction) {
  auto link = make_duty_cycle_link(8, 2, 0.5);
  GeneralEdgeMEG meg(16, link.chain, link.chi, 3);
  // The cyclic chain's stationary distribution is uniform over the period.
  EXPECT_NEAR(meg.stationary_edge_probability(), 2.0 / 8.0, 1e-9);
}

TEST(GeneralEdgeMEG, DutyCycleValidation) {
  EXPECT_THROW(make_duty_cycle_link(1, 1, 0.5), std::invalid_argument);
  EXPECT_THROW(make_duty_cycle_link(4, 4, 0.5), std::invalid_argument);
  EXPECT_THROW(make_duty_cycle_link(4, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(make_duty_cycle_link(4, 2, 0.0), std::invalid_argument);
}

TEST(GeneralEdgeMEG, ResetReproduces) {
  auto link = make_bursty_link(0.3, 0.4, 0.3);
  GeneralEdgeMEG meg(24, link.chain, link.chi, 77);
  std::vector<std::size_t> first;
  for (int t = 0; t < 8; ++t) {
    meg.step();
    first.push_back(meg.snapshot().num_edges());
  }
  meg.reset(77);
  for (int t = 0; t < 8; ++t) {
    meg.step();
    EXPECT_EQ(meg.snapshot().num_edges(), first[static_cast<std::size_t>(t)]);
  }
}

TEST(GeneralEdgeMEG, FloodingCompletes) {
  auto link = make_bursty_link(0.3, 0.6, 0.3);
  GeneralEdgeMEG meg(48, link.chain, link.chi, 13);
  const FloodResult r = flood(meg, 0, 10000);
  EXPECT_TRUE(r.completed);
}

TEST(FourStateLink, Validation) {
  FourStateLinkParams bad;
  bad.connect = 0.9;
  bad.calm_off = 0.5;  // volatile exits sum > 1
  EXPECT_THROW(make_four_state_link(bad), std::invalid_argument);
  FourStateLinkParams neg;
  neg.wake = -0.1;
  EXPECT_THROW(make_four_state_link(neg), std::invalid_argument);
}

TEST(FourStateLink, ChainIsValidAndIrreducible) {
  const auto link = make_four_state_link({});
  EXPECT_EQ(link.chain.num_states(), 4u);
  EXPECT_TRUE(link.chain.is_irreducible());
  EXPECT_FALSE(link.chi[0]);
  EXPECT_FALSE(link.chi[1]);
  EXPECT_TRUE(link.chi[2]);
  EXPECT_TRUE(link.chi[3]);
}

TEST(FourStateLink, StickyOffLowersAlpha) {
  // Making off-sticky harder to leave (smaller wake) lowers the on
  // probability.
  FourStateLinkParams fast;
  fast.wake = 0.2;
  FourStateLinkParams slow;
  slow.wake = 0.01;
  const auto chain_alpha = [](const BurstyLink& link) {
    const auto pi = link.chain.stationary();
    return pi[2] + pi[3];
  };
  EXPECT_GT(chain_alpha(make_four_state_link(fast)),
            chain_alpha(make_four_state_link(slow)));
}

TEST(FourStateLink, BurstierContactsThanTwoState) {
  // The sticky on-state produces longer contact runs than a two-state
  // chain matched to the same stationary alpha: compare the mean on-run
  // length by simulation.  Parameters chosen so the on macro-state is
  // strongly sticky (agents stabilize fast and destabilize rarely).
  FourStateLinkParams params;
  params.stabilize = 0.3;
  params.destabilize = 0.005;
  const auto link = make_four_state_link(params);
  const auto pi = link.chain.stationary();
  const double alpha = pi[2] + pi[3];

  GeneralEdgeMEG bursty(8, link.chain, link.chi, 5);
  // Two-state with same alpha and a *faster* cycle (bigger p): its runs
  // are 1/q long, far shorter than the sticky macro-state's runs.
  const double p = 0.2;
  const double q = std::min(1.0, p * (1.0 - alpha) / alpha);
  GeneralEdgeMEG plain(8, DenseChain({{1.0 - p, p}, {q, 1.0 - q}}),
                       {false, true}, 5);

  auto mean_run = [](GeneralEdgeMEG& meg) {
    std::size_t runs = 0, on_total = 0;
    bool prev = false;
    for (int t = 0; t < 30000; ++t) {
      const bool on = meg.snapshot().has_edge(0, 1);
      if (on) ++on_total;
      if (on && !prev) ++runs;
      prev = on;
      meg.step();
    }
    return runs > 0 ? static_cast<double>(on_total) / static_cast<double>(runs)
                    : 0.0;
  };
  EXPECT_GT(mean_run(bursty), mean_run(plain));
}

TEST(GeneralEdgeMEG, FourStateFloodingCompletes) {
  const auto link = make_four_state_link({});
  GeneralEdgeMEG meg(48, link.chain, link.chi, 17);
  const FloodResult r = flood(meg, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(GeneralEdgeMEG, DenseStepStreamIsPinned) {
  // The dense engine's per-pair states and decoded edges after the
  // initializer and each of 40 steps, folded into one FNV-1a hash per
  // (chain, n, seed).  The chains reach each initializer path:
  //  - "flood" and "four_state": a quiescent majority, so the scatter
  //    fill writes the majority bucket as key ranges;
  //  - "mostly_on": a dominant majority that chi maps to on, so the
  //    scatter is followed by the generic fill;
  //  - "duty": four uniform states (pi_max < 1/2), the per-pair walk.
  // Any moved draw or byte changes a hash.
  struct Row {
    const char* chain;
    NodeId n;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {"flood", 12, 1, 0x99b37daf73b93077ULL},
      {"flood", 12, 2, 0xbbf194927a851d6dULL},
      {"flood", 64, 1, 0x7c7691d0f09636c2ULL},
      {"flood", 64, 2, 0x113561b184441f6fULL},
      {"flood", 200, 1, 0xf65b138035864156ULL},
      {"flood", 200, 2, 0xb84caacd10f3aed9ULL},
      {"four_state", 12, 1, 0x116a589c1777c8b2ULL},
      {"four_state", 12, 2, 0x8c334dc4e4ddfd69ULL},
      {"four_state", 64, 1, 0xbd6cd6b4daea13e2ULL},
      {"four_state", 64, 2, 0xa3a83011f6e8366eULL},
      {"four_state", 200, 1, 0x674b750d16f63ce8ULL},
      {"four_state", 200, 2, 0x25ee936850af7f39ULL},
      {"mostly_on", 12, 1, 0x8e59a473820323feULL},
      {"mostly_on", 12, 2, 0x6148f28e99e13e8eULL},
      {"mostly_on", 64, 1, 0x5e825fff414896feULL},
      {"mostly_on", 64, 2, 0x2f73341463178e9dULL},
      {"mostly_on", 200, 1, 0xb0cca95afe3dff19ULL},
      {"mostly_on", 200, 2, 0x32de7f317b8de7ccULL},
      {"duty", 12, 1, 0x7aaf803f50ac80e7ULL},
      {"duty", 12, 2, 0x91d951dfec17b947ULL},
      {"duty", 64, 1, 0xd68fd97dcede43f6ULL},
      {"duty", 64, 2, 0x18f9c321205ed155ULL},
      {"duty", 200, 1, 0x52b8b227c84d5833ULL},
      {"duty", 200, 2, 0xf56af8c2c0509be9ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << row.chain << " n=" << row.n << " seed=" << row.seed);
    FourStateLinkParams four_state;
    four_state.wake = 0.05;
    const std::string chain = row.chain;
    const BurstyLink link =
        chain == "flood"        ? make_bursty_link(0.1, 0.5, 0.3)
        : chain == "four_state" ? make_four_state_link(four_state)
        : chain == "mostly_on"  ? make_bursty_link(0.5, 0.5, 0.05)
                                : make_duty_cycle_link(4, 2, 0.3);
    GeneralEdgeMEG meg(row.n, link.chain, link.chi, row.seed,
                       MegStorage::kDense);
    std::vector<std::uint8_t> states;
    std::uint64_t h = kFnvOffset;
    for (int t = 0; t <= 40; ++t) {
      if (t > 0) meg.step();
      states.clear();
      for (NodeId i = 0; i + 1 < row.n; ++i) {
        for (NodeId j = i + 1; j < row.n; ++j) {
          states.push_back(static_cast<std::uint8_t>(meg.pair_state(i, j)));
        }
      }
      h = fnv_mix_bytes(h, states);
      h = fnv_mix_bytes(h, decoded_edges(meg.snapshot()));
    }
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

TEST(GeneralEdgeMEG, SnapshotConsistentWithStates) {
  // With chi always-false the snapshot must stay empty; always-true full.
  DenseChain chain({{0.5, 0.5}, {0.5, 0.5}});
  GeneralEdgeMEG none(8, chain, {false, false}, 1);
  GeneralEdgeMEG full(8, chain, {true, true}, 1);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(none.snapshot().num_edges(), 0u);
    EXPECT_EQ(full.snapshot().num_edges(), 28u);
    none.step();
    full.step();
  }
}

}  // namespace
}  // namespace megflood
