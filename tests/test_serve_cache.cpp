// The serve result cache (serve/cache.hpp): memory and disk tiers, the
// memory tier's LRU byte budget, byte-identity of replayed entries, torn/foreign-file tolerance, and
// hash-collision safety via key verification.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "core/campaign.hpp"
#include "serve/cache.hpp"
#include "util/fault_injection.hpp"

namespace megflood::serve {
namespace {

CampaignKey key_for(std::uint64_t seed) {
  CampaignKey key;
  key.scenario_cli = "--model=fixed --n=16 --trials=2 --seed=" +
                     std::to_string(seed);
  key.seed = seed;
  key.trials = 2;
  return key;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  // A previous run's entries would turn misses into hits; start clean.
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ServeCache, MemoryTierStoresAndReplaysVerbatim) {
  ResultCache cache;
  const CampaignKey key = key_for(1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  const std::string bytes = "{\"rounds_mean\": 4, \"warnings\": []}";
  cache.store(key, bytes);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, bytes);  // bit-identical, not just equivalent

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(ServeCache, FirstStoreWins) {
  ResultCache cache;
  const CampaignKey key = key_for(2);
  cache.store(key, "{\"v\": 1}");
  cache.store(key, "{\"v\": 2}");  // deterministic runs cannot disagree
  EXPECT_EQ(cache.lookup(key).value_or(""), "{\"v\": 1}");
}

TEST(ServeCache, DiskTierSurvivesReconstruction) {
  const std::string dir = fresh_dir("serve_cache_disk");
  const CampaignKey key = key_for(3);
  const std::string bytes = "{\"rounds_mean\": 7}";
  {
    ResultCache cache(dir);
    cache.store(key, bytes);
  }
  ResultCache cache(dir);  // a fresh daemon on the same directory
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, bytes);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  // The disk hit was promoted; the second lookup is served from memory.
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(ServeCache, TornDiskEntryIsAMissNotAWrongAnswer) {
  const std::string dir = fresh_dir("serve_cache_torn");
  const CampaignKey key = key_for(4);
  {
    ResultCache cache(dir);
    cache.store(key, "{\"v\": 4}");
  }
  // Truncate the entry mid-payload (simulates a crash before rename
  // cannot happen — the write is atomic — but a corrupted disk can).
  const std::string path =
      dir + "/" + [&] {
        char buffer[17];
        std::snprintf(buffer, sizeof(buffer), "%016llx",
                      static_cast<unsigned long long>(campaign_key_hash(key)));
        return std::string(buffer);
      }() + ".mfc";
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << campaign_key_string(key) << "\n{\"v\": 4";  // no trailing newline
  }
  ResultCache cache(dir);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(ServeCache, HashCollisionDegradesToProbingNeverToAWrongAnswer) {
  const std::string dir = fresh_dir("serve_cache_collide");
  const CampaignKey key = key_for(5);
  const CampaignKey other = key_for(6);
  {  // Fabricate a collision: a file at `other`'s hash slot holding
     // `key`'s entry.  The key line must make the cache treat it as
     // not-ours rather than serve key's result for other.
    ResultCache setup(dir);
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(campaign_key_hash(other)));
    std::ofstream out(dir + "/" + std::string(buffer) + ".mfc",
                      std::ios::binary | std::ios::trunc);
    out << campaign_key_string(key) << "\n{\"v\": 5}\n";
  }
  {
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup(other).has_value());
    cache.store(other, "{\"v\": 6}");  // lands in the probe-1 slot
  }
  ResultCache cache(dir);
  EXPECT_EQ(cache.lookup(other).value_or(""), "{\"v\": 6}");
}

TEST(ServeCache, MemoryOnlyWhenNoDirectoryConfigured) {
  ResultCache cache;
  const CampaignKey key = key_for(7);
  cache.store(key, "{\"v\": 7}");
  EXPECT_EQ(cache.stats().entries, 1u);  // nothing to assert on disk — the
  // constructor contract is simply that no directory is touched.
}

// ---------------------------------------------------------------------------
// The memory tier's byte budget (ResultCache::kMemoryBytes)
// ---------------------------------------------------------------------------

// An eighth of the budget: seven such entries and their keys fit, the
// eighth pushes the tier over.
std::string eighth_of_budget(char fill) {
  return std::string(ResultCache::kMemoryBytes / 8, fill);
}

TEST(ServeCache, MemoryTierEvictsTheLeastRecentlyUsedPastItsBudget) {
  ResultCache cache;
  for (std::uint64_t s = 1; s <= 7; ++s) {
    cache.store(key_for(s), eighth_of_budget('a'));
  }
  EXPECT_EQ(cache.stats().entries, 7u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.store(key_for(8), eighth_of_budget('b'));  // key 1 is the oldest
  EXPECT_EQ(cache.stats().entries, 7u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(key_for(1)).has_value());

  // A hit refreshes recency: key 2 was the oldest, now key 3 is.
  EXPECT_EQ(cache.lookup(key_for(2)).value_or(""), eighth_of_budget('a'));
  cache.store(key_for(9), eighth_of_budget('c'));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.lookup(key_for(3)).has_value());
  EXPECT_TRUE(cache.lookup(key_for(2)).has_value());
  for (std::uint64_t s = 4; s <= 9; ++s) {
    EXPECT_TRUE(cache.lookup(key_for(s)).has_value()) << s;
  }
}

TEST(ServeCache, AnEntryLargerThanTheBudgetIsStillKept) {
  ResultCache cache;
  cache.store(key_for(1), "{\"v\": 1}");
  const std::string huge(ResultCache::kMemoryBytes + 1, 'h');
  cache.store(key_for(2), huge);  // evicts the rest, never itself
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(key_for(2)).value_or(""), huge);

  cache.store(key_for(3), "{\"v\": 3}");  // now the huge one is the oldest
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.lookup(key_for(3)).value_or(""), "{\"v\": 3}");
}

TEST(ServeCache, AnEvictedEntryIsADiskHitWithADiskTier) {
  const std::string dir = fresh_dir("serve_cache_evict_disk");
  ResultCache cache(dir);
  const CampaignKey key = key_for(20);
  cache.store(key, "{\"v\": 20}");
  for (std::uint64_t s = 21; s <= 28; ++s) {
    cache.store(key_for(s), eighth_of_budget('d'));
  }
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(key).value_or(""), "{\"v\": 20}");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  // The disk hit came back as the most recent entry.
  EXPECT_EQ(cache.lookup(key).value_or(""), "{\"v\": 20}");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

// ---------------------------------------------------------------------------
// Shared-directory robustness (ISSUE 9): two daemons on one --cache_dir
// ---------------------------------------------------------------------------

std::string entry_path(const std::string& dir, const CampaignKey& key) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(campaign_key_hash(key)));
  return dir + "/" + std::string(buffer) + ".mfc";
}

// Clobbers the trailing newline — the framing byte whose absence marks a
// torn entry — exactly what the corrupt:store= fault site does.
void tear_entry(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr) << path;
  std::fseek(file, -1, SEEK_END);
  std::fputc('X', file);
  std::fclose(file);
}

TEST(ServeCache, TwoDaemonsSharingADirectoryFirstStoreWinsOnDisk) {
  const std::string dir = fresh_dir("serve_cache_shared");
  const CampaignKey key = key_for(8);
  ResultCache a(dir);
  ResultCache b(dir);  // a second live daemon on the same directory
  a.store(key, "{\"v\": 8}");
  b.store(key, "{\"v\": 9}");  // loses: a complete entry is never replaced
  ResultCache fresh(dir);
  EXPECT_EQ(fresh.lookup(key).value_or(""), "{\"v\": 8}");
}

TEST(ServeCache, TornEntryIsUnlinkedOnReadAndTheSlotIsReusable) {
  const std::string dir = fresh_dir("serve_cache_heal");
  const CampaignKey key = key_for(9);
  const std::string bytes = "{\"v\": 10}";
  {
    ResultCache writer(dir);
    writer.store(key, bytes);
  }
  tear_entry(entry_path(dir, key));

  ResultCache reader(dir);  // the *other* daemon reads the torn entry
  EXPECT_FALSE(reader.lookup(key).has_value());
  // The read path healed the slot: the torn file is gone, so a re-store
  // lands in the primary slot instead of being shadowed forever.
  EXPECT_FALSE(std::filesystem::exists(entry_path(dir, key)));
  reader.store(key, bytes);
  {
    ResultCache verify(dir);
    EXPECT_EQ(verify.lookup(key).value_or(""), bytes);
    EXPECT_EQ(verify.stats().disk_hits, 1u);
  }
}

TEST(ServeCache, ReStoreOverARemnantTornEntryCompletesIt) {
  const std::string dir = fresh_dir("serve_cache_restore");
  const CampaignKey key = key_for(10);
  const std::string bytes = "{\"v\": 11}";
  {
    ResultCache writer(dir);
    writer.store(key, bytes);
  }
  tear_entry(entry_path(dir, key));
  // This daemon never reads the slot first: the store path itself must
  // recognize the torn same-key entry and overwrite it in place.
  ResultCache other(dir);
  other.store(key, bytes);
  ResultCache verify(dir);
  EXPECT_EQ(verify.lookup(key).value_or(""), bytes);
}

TEST(ServeCache, RacingStoresFromTwoDaemonsLeaveCompleteEntries) {
  const std::string dir = fresh_dir("serve_cache_race");
  constexpr std::uint64_t kKeys = 32;
  ResultCache a(dir);
  ResultCache b(dir);
  const auto bytes_for = [](std::uint64_t seed) {
    return "{\"v\": " + std::to_string(seed) + "}";
  };
  // Determinism guarantees both daemons compute the same bytes for the
  // same campaign — the race is purely about who writes the file.
  std::thread ta([&] {
    for (std::uint64_t s = 100; s < 100 + kKeys; ++s) {
      a.store(key_for(s), bytes_for(s));
    }
  });
  std::thread tb([&] {
    for (std::uint64_t s = 100 + kKeys; s-- > 100;) {
      b.store(key_for(s), bytes_for(s));
    }
  });
  ta.join();
  tb.join();
  ResultCache fresh(dir);
  for (std::uint64_t s = 100; s < 100 + kKeys; ++s) {
    EXPECT_EQ(fresh.lookup(key_for(s)).value_or(""), bytes_for(s)) << s;
  }
}

TEST(ServeCache, CorruptInjectionTearsOneStoreAndTheCacheRecovers) {
  const std::string dir = fresh_dir("serve_cache_corrupt");
  ResultCache cache(dir);
  FaultPlan plan = FaultPlan::parse("corrupt:store=2", 1);
  cache.set_disk_store_hook(
      [&plan](std::size_t index, const std::string& path) {
        plan.fire_disk_store(index, path);
      });
  const CampaignKey k1 = key_for(11);
  const CampaignKey k2 = key_for(12);
  cache.store(k1, "{\"v\": 12}");  // store #1: intact
  cache.store(k2, "{\"v\": 13}");  // store #2: torn on disk by the fault

  ResultCache fresh(dir);
  EXPECT_EQ(fresh.lookup(k1).value_or(""), "{\"v\": 12}");
  EXPECT_FALSE(fresh.lookup(k2).has_value());  // a miss, never a wrong answer
  fresh.store(k2, "{\"v\": 13}");  // recomputed: the slot took the re-store
  ResultCache verify(dir);
  EXPECT_EQ(verify.lookup(k2).value_or(""), "{\"v\": 13}");
}

}  // namespace
}  // namespace megflood::serve
