#pragma once

// Content-addressed result cache for the serve layer (ISSUE 8), keyed by
// the tree-wide canonical campaign identity (core/campaign.hpp).  Because
// every campaign is a pure function of its key — the scenario registry
// pins the model, the canonical CLI pins every parameter, and the trial
// runner is bit-identical for any thread count — a cached value can be
// replayed verbatim: a cache hit returns the exact bytes
// (core/format.hpp result_json_object) the original run produced.
//
// Two tiers: a bounded in-memory LRU in front of an optional on-disk
// directory, one file per entry named by the FNV-1a hash of the key
// string.  The memory tier holds at most kMemoryBytes of key + result
// bytes: a store or disk promotion past that evicts the least recently
// used entries (a hit refreshes recency), except the entry just added,
// which stays even when it alone is larger than the budget.  An evicted
// key is a miss again (recomputed, or a disk hit with a disk tier); the
// bytes are deterministic, so eviction never changes a result.  Disk files
// carry the full key string and are verified on read, so a hash collision
// degrades to a miss (plus linear probing over a few suffixed names),
// never to a wrong result.  Writes go through a temp file + rename so a
// crash can never leave a torn entry behind.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"

namespace megflood::serve {

// Reads a whole file; nullopt when absent or unreadable.
std::optional<std::string> slurp(const std::string& path);

// The names in `dir` that end in one of `suffixes`, sorted (a
// deterministic order for recovery and warnings).
std::vector<std::string> sorted_names(
    const std::string& dir, std::initializer_list<std::string_view> suffixes);

struct CacheStats {
  std::uint64_t hits = 0;       // lookup answered (memory or disk)
  std::uint64_t misses = 0;     // lookup unanswered
  std::uint64_t disk_hits = 0;  // subset of hits served from disk
  std::uint64_t entries = 0;    // in-memory entries
  std::uint64_t evictions = 0;  // entries dropped from memory for space
};

class ResultCache {
 public:
  // The memory tier's budget, counted as key + result bytes.
  static constexpr std::size_t kMemoryBytes = std::size_t{8} << 20;

  // `disk_dir` empty = memory-only.  The directory is created if absent
  // (one level); failure to create throws std::runtime_error.
  explicit ResultCache(std::string disk_dir = "");

  // The cached result object bytes for `key`, or nullopt.  A memory hit
  // becomes the most recent entry; a disk hit is promoted into memory.
  std::optional<std::string> lookup(const CampaignKey& key);

  // Stores the result bytes for `key` (memory + disk when configured).
  // Storing the same key again is a no-op (first write wins: the bytes
  // are deterministic, so a second value could only be identical).
  void store(const CampaignKey& key, const std::string& result_json);

  CacheStats stats() const;

  // Test/fault-injection seam: called after each successful disk store
  // with a 1-based daemon-wide store count and the entry's final path
  // (util/fault_injection corrupt:store=N uses it to damage one entry in
  // place).  Must be set before concurrent use.
  void set_disk_store_hook(
      std::function<void(std::size_t index, const std::string& path)> hook) {
    disk_store_hook_ = std::move(hook);
  }

 private:
  std::optional<std::string> disk_lookup(const std::string& key_string);
  void disk_store(const std::string& key_string,
                  const std::string& result_json);
  std::string entry_path(std::uint64_t hash, int probe) const;
  // Startup survey of the cache directory: warns on stderr about .mfc
  // cache entries and .mfj journals the daemon will not be able to open
  // (permissions, foreign ownership) instead of failing later, silently
  // or loudly.  Never throws — an unreadable entry degrades to a miss.
  void scan_disk() const;

  // Adds a memory entry as the most recent, then evicts from the least
  // recent end until the tier fits kMemoryBytes or holds only the new one.
  void remember(const std::string& key_string, const std::string& result);

  // One memory entry: the key string and then the result bytes in a
  // single allocation, so the list and map nodes and malloc headers add
  // only ~150 bytes to an entry's key + result bytes.
  struct MemoryEntry {
    std::string bytes;
    std::size_t key_size;
    std::string_view key() const {
      return std::string_view(bytes).substr(0, key_size);
    }
    std::string_view result() const {
      return std::string_view(bytes).substr(key_size);
    }
  };
  // Memory tier: lru_ owns the entries, most recent first; index_ maps
  // each key, viewed in its lru_ node (list nodes never move), to that
  // node.
  using Lru = std::list<MemoryEntry>;
  mutable std::mutex mutex_;
  Lru lru_;
  std::map<std::string_view, Lru::iterator> index_;
  std::size_t memory_bytes_ = 0;
  std::string dir_;
  CacheStats stats_;
  std::function<void(std::size_t, const std::string&)> disk_store_hook_;
  std::size_t disk_stores_ = 0;
};

}  // namespace megflood::serve
