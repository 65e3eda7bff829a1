#include "serve/cache.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace megflood::serve {

namespace {

// Hash collisions are survivable (the stored key is verified), so a tiny
// probe window is enough: three same-hash distinct keys in one cache
// directory is beyond astronomically unlikely, and the fourth simply
// stays memory-only.
constexpr int kMaxProbes = 4;

}  // namespace

std::optional<std::string> slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return std::nullopt;
  std::string data;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return std::nullopt;
  return data;
}

std::vector<std::string> sorted_names(
    const std::string& dir, std::initializer_list<std::string_view> suffixes) {
  std::vector<std::string> names;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string_view name = entry->d_name;
      for (const std::string_view suffix : suffixes) {
        if (name.size() > suffix.size() && name.ends_with(suffix)) {
          names.emplace_back(name);
          break;
        }
      }
    }
    ::closedir(handle);
  }
  std::sort(names.begin(), names.end());
  return names;
}

ResultCache::ResultCache(std::string disk_dir) : dir_(std::move(disk_dir)) {
  if (dir_.empty()) return;
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cache: cannot create directory '" + dir_ +
                             "': " + std::strerror(errno));
  }
  scan_disk();
}

// A shared or inherited cache directory can hold entries this daemon
// cannot open (another uid's files, a permissions accident).  They must
// not abort startup — lookups degrade to misses and journals stay
// unrecovered — but the operator should hear about it once, up front,
// instead of diagnosing silent cache misses later.
void ResultCache::scan_disk() const {
  // Sorted: a deterministic warning order.
  for (const std::string& name : sorted_names(dir_, {".mfc", ".mfj"})) {
    const std::string path = dir_ + "/" + name;
    if (std::FILE* file = std::fopen(path.c_str(), "rb")) {
      std::fclose(file);
    } else {
      std::fprintf(stderr,
                   "megflood_serve: warning: cache file %s is unreadable "
                   "(%s); serving without it\n",
                   path.c_str(), std::strerror(errno));
    }
  }
}

std::string ResultCache::entry_path(std::uint64_t hash, int probe) const {
  std::string path = dir_ + "/" + hex64(hash);
  if (probe > 0) path += "-" + std::to_string(probe);
  return path + ".mfc";
}

std::optional<std::string> ResultCache::lookup(const CampaignKey& key) {
  const std::string key_string = campaign_key_string(key);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key_string);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return std::string(it->second->result());
  }
  if (!dir_.empty()) {
    if (auto from_disk = disk_lookup(key_string)) {
      ++stats_.hits;
      ++stats_.disk_hits;
      remember(key_string, *from_disk);
      return from_disk;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::store(const CampaignKey& key,
                        const std::string& result_json) {
  const std::string key_string = campaign_key_string(key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key_string) != index_.end()) return;
  remember(key_string, result_json);
  if (!dir_.empty()) disk_store(key_string, result_json);
}

void ResultCache::remember(const std::string& key_string,
                           const std::string& result) {
  lru_.push_front({key_string + result, key_string.size()});
  index_.emplace(lru_.front().key(), lru_.begin());
  memory_bytes_ += lru_.front().bytes.size();
  while (memory_bytes_ > kMemoryBytes && lru_.size() > 1) {
    const MemoryEntry& oldest = lru_.back();
    memory_bytes_ -= oldest.bytes.size();
    index_.erase(oldest.key());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.entries = index_.size();
  return out;
}

// Disk entry layout: the full key string, '\n', the result object bytes,
// '\n'.  Neither part can contain a newline (campaign_key_string rejects
// them at parse time; result_json_object escapes control characters), so
// the first newline splits the file unambiguously.
std::optional<std::string> ResultCache::disk_lookup(
    const std::string& key_string) {
  const std::uint64_t hash = campaign_key_hash(key_string);
  for (int probe = 0; probe < kMaxProbes; ++probe) {
    const std::string path = entry_path(hash, probe);
    const auto data = slurp(path);
    if (!data) return std::nullopt;  // first absent probe ends the chain
    const std::size_t newline = data->find('\n');
    if (newline == std::string::npos) continue;  // torn or foreign file
    if (data->compare(0, newline, key_string) != 0) continue;  // collision
    std::string result = data->substr(newline + 1);
    if (result.empty() || result.back() != '\n') {
      // A torn entry *for this key* — a crashed or corrupted writer.  Heal
      // by unlinking it so the slot can be re-stored cleanly (a concurrent
      // daemon sharing this directory reads a miss, recomputes, and its
      // store fills the slot).  A later-probe entry can be shadowed until
      // the slot refills — a stale miss at worst, never a wrong result.
      std::remove(path.c_str());
      continue;
    }
    result.pop_back();
    return result;
  }
  return std::nullopt;
}

void ResultCache::disk_store(const std::string& key_string,
                             const std::string& result_json) {
  const std::uint64_t hash = campaign_key_hash(key_string);
  int probe = 0;
  for (; probe < kMaxProbes; ++probe) {
    const auto data = slurp(entry_path(hash, probe));
    if (!data) break;  // free slot
    const std::size_t newline = data->find('\n');
    if (newline == std::string::npos ||
        data->compare(0, newline, key_string) != 0) {
      continue;  // foreign or colliding entry: next probe
    }
    // Same key.  A complete entry (framing newline after the result) wins
    // first-store-wins; a torn one is overwritten in place — healing for
    // a crash or corruption that beat us to the slot.
    if (data->size() > newline + 1 && data->back() == '\n') return;
    break;
  }
  if (probe == kMaxProbes) return;  // probe window full: stay memory-only

  // Write-to-temp + rename so a concurrent reader (or a crash) can never
  // observe a half-written entry.  The temp name embeds the probe slot so
  // two servers sharing a directory do not clobber each other's temp.
  const std::string path = entry_path(hash, probe);
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (!file) return;  // disk tier is best-effort; memory tier already has it
  bool ok = std::fwrite(key_string.data(), 1, key_string.size(), file) ==
            key_string.size();
  ok = ok && std::fputc('\n', file) != EOF;
  ok = ok && std::fwrite(result_json.data(), 1, result_json.size(), file) ==
                 result_json.size();
  ok = ok && std::fputc('\n', file) != EOF;
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return;
  }
  if (disk_store_hook_) disk_store_hook_(++disk_stores_, path);
}

}  // namespace megflood::serve
