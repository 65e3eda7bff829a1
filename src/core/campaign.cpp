#include "core/campaign.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/scenario.hpp"

namespace megflood {

namespace {

constexpr const char* kTag = "megfcamp1";

[[noreturn]] void bad_key(const std::string& text, const std::string& why) {
  throw std::invalid_argument("campaign key '" + text + "': " + why);
}

// Parses "<field>=<u64>|" starting at `pos`; advances `pos` past the '|'.
std::uint64_t take_u64_field(const std::string& text, const char* field,
                             std::size_t& pos) {
  const std::string prefix = std::string(field) + "=";
  if (text.compare(pos, prefix.size(), prefix) != 0) {
    bad_key(text, "expected '" + prefix + "'");
  }
  pos += prefix.size();
  const std::size_t bar = text.find('|', pos);
  if (bar == std::string::npos || bar == pos) {
    bad_key(text, std::string("missing ") + field + " value");
  }
  std::uint64_t value = 0;
  for (std::size_t i = pos; i < bar; ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') {
      bad_key(text, std::string(field) + " is not a non-negative integer");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      bad_key(text, std::string(field) + " overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  pos = bar + 1;
  return value;
}

}  // namespace

CampaignKey campaign_key(const ScenarioSpec& spec) {
  CampaignKey key;
  key.scenario_cli = scenario_to_cli(spec);
  key.seed = spec.trial.seed;
  key.trials = spec.trial.trials;
  return key;
}

std::string campaign_key_string(const CampaignKey& key) {
  return std::string(kTag) + "|seed=" + std::to_string(key.seed) +
         "|trials=" + std::to_string(key.trials) + "|" + key.scenario_cli;
}

CampaignKey parse_campaign_key(const std::string& text) {
  std::size_t pos = 0;
  const std::string tag = std::string(kTag) + "|";
  if (text.compare(0, tag.size(), tag) != 0) {
    bad_key(text, std::string("expected '") + kTag + "|' tag");
  }
  pos = tag.size();
  CampaignKey key;
  key.seed = take_u64_field(text, "seed", pos);
  key.trials = take_u64_field(text, "trials", pos);
  key.scenario_cli = text.substr(pos);
  if (key.scenario_cli.empty()) bad_key(text, "empty scenario CLI");
  if (key.scenario_cli.find('\n') != std::string::npos) {
    bad_key(text, "scenario CLI contains a newline");
  }
  return key;
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
