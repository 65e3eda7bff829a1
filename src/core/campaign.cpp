#include "core/campaign.hpp"

#include <cstdio>

#include "core/scenario.hpp"

namespace megflood {

CampaignKey campaign_key(const ScenarioSpec& spec) {
  CampaignKey key;
  key.scenario_cli = scenario_to_cli(spec);
  key.seed = spec.trial.seed;
  key.trials = spec.trial.trials;
  return key;
}

std::string campaign_key_string(const CampaignKey& key) {
  return "megfcamp1|seed=" + std::to_string(key.seed) +
         "|trials=" + std::to_string(key.trials) + "|" + key.scenario_cli;
}

std::uint64_t campaign_key_hash(const std::string& key_string) {
  return fnv1a(key_string);
}

std::uint64_t campaign_key_hash(const CampaignKey& key) {
  return campaign_key_hash(campaign_key_string(key));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace megflood
