// The canonical campaign identity (core/campaign.hpp): extraction from a
// spec, the key string's layout, and the hash contract the serve cache's
// file naming relies on.

#include <gtest/gtest.h>

#include <string>

#include "core/campaign.hpp"
#include "core/scenario.hpp"

namespace megflood {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.model = "edge_meg";
  spec.params["n"] = "64";
  spec.params["alpha"] = "0.01";
  spec.trial.trials = 12;
  spec.trial.seed = 99;
  return spec;
}

TEST(CampaignKey, BindsCliSeedAndTrials) {
  const ScenarioSpec spec = small_spec();
  const CampaignKey key = campaign_key(spec);
  EXPECT_EQ(key.scenario_cli, scenario_to_cli(spec));
  EXPECT_EQ(key.seed, 99u);
  EXPECT_EQ(key.trials, 12u);
}

TEST(CampaignKey, StringLayout) {
  const CampaignKey key = campaign_key(small_spec());
  EXPECT_EQ(campaign_key_string(key),
            "megfcamp1|seed=99|trials=12|" + key.scenario_cli);
}

TEST(CampaignKey, CliRoundTripsThroughScenarioParser) {
  // The identity's CLI field must itself reproduce the spec — that is
  // what lets a cache key stand in for "run this exact campaign".
  const ScenarioSpec spec = small_spec();
  const CampaignKey key = campaign_key(spec);
  const ScenarioSpec back = parse_scenario_cli(key.scenario_cli);
  EXPECT_EQ(campaign_key(back), key);
}

TEST(CampaignKey, EqualityTracksEveryField) {
  const CampaignKey key = campaign_key(small_spec());
  CampaignKey other = key;
  EXPECT_EQ(other, key);
  other.seed = 100;
  EXPECT_NE(other, key);
  other = key;
  other.trials = 13;
  EXPECT_NE(other, key);
  other = key;
  other.scenario_cli += " --rotate_sources=0";
  EXPECT_NE(other, key);
}

TEST(CampaignKey, HashIsStableAndKeySensitive) {
  const CampaignKey key = campaign_key(small_spec());
  EXPECT_EQ(campaign_key_hash(key), campaign_key_hash(key));
  EXPECT_EQ(campaign_key_hash(key),
            campaign_key_hash(campaign_key_string(key)));
  CampaignKey other = key;
  other.seed = 100;
  // Not guaranteed by FNV-1a in general, but a same-hash neighbor here
  // would make the cache's probe path the common case — worth noticing.
  EXPECT_NE(campaign_key_hash(other), campaign_key_hash(key));
}

}  // namespace
}  // namespace megflood
