#pragma once

// The canonical campaign identity — ONE tree-wide definition of "the same
// experiment" (ISSUE 8).  A campaign is the canonical scenario CLI
// (core/scenario.hpp scenario_to_cli) plus the explicit seed and trial
// count; two runs with equal CampaignKeys produce bit-identical
// measurements, which is what makes the key safe to use both as the
// checkpoint journal's header binding (core/checkpoint.hpp) and as the
// serve layer's result-cache key (serve/cache.hpp).
//
// The seed and trials fields are redundant with the CLI string (the
// canonical CLI always carries --seed and --trials) but are bound
// explicitly so consumers can check them without re-parsing the CLI, and
// so a future CLI-grammar change cannot silently decouple the two.

#include <cstdint>
#include <string>
#include <string_view>

namespace megflood {

struct ScenarioSpec;

struct CampaignKey {
  std::string scenario_cli;
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;

  bool operator==(const CampaignKey&) const = default;
};

// The identity of `spec`: canonical CLI + seed + trials.
CampaignKey campaign_key(const ScenarioSpec& spec);

// One-line serialization, "megfcamp1|seed=<S>|trials=<T>|<cli>".  The CLI
// is the last field (it contains spaces and arbitrary parameter bytes, but
// never a newline — scenario args are whitespace-split tokens), so the
// string is unambiguous: equal strings are equal keys.  Journals and the
// cache compare these strings; nothing parses one back.
std::string campaign_key_string(const CampaignKey& key);

// FNV-1a over campaign_key_string(key) — stable across runs and hosts,
// used for cache file names.  Collisions are possible; consumers must
// verify the full key string before trusting a hash match.  The string
// overload hashes an already-serialized key without re-serializing.
std::uint64_t campaign_key_hash(const CampaignKey& key);
std::uint64_t campaign_key_hash(const std::string& key_string);

// 64-bit FNV-1a (the key hash and each journal frame's checksum), and a
// hash as the 16 hex digits that name a campaign's files.
std::uint64_t fnv1a(std::string_view bytes);
std::string hex64(std::uint64_t value);

}  // namespace megflood
