#include "core/checkpoint.hpp"

#include <unistd.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

namespace megflood {

namespace {

constexpr std::uint64_t kMagic = 0x3150'4b43'4647'454dULL;  // "MEGFCKP1"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kKindOutcome = 1;
constexpr std::uint32_t kKindError = 2;
// Frame fields around every payload: kind + trial + length before,
// checksum after.
constexpr std::size_t kFrameOverhead = 4 + 8 + 4 + 8;
// A corrupt length field must not drive a multi-gigabyte allocation while
// scanning for the valid prefix; no legitimate payload gets near this.
constexpr std::uint32_t kMaxPayload = 64u << 20;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Bounds-checked reader over a byte buffer; every get_* sets ok_ = false
// on overrun instead of reading garbage, so a torn tail parses as
// "incomplete record", never as undefined behavior.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool ok() const noexcept { return ok_; }
  std::size_t offset() const noexcept { return offset_; }
  bool at_end() const noexcept { return offset_ == size_; }

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  double get_f64() { return get<double>(); }

  std::string get_bytes(std::size_t count) {
    if (!ok_ || size_ - offset_ < count) {
      ok_ = false;
      return {};
    }
    std::string out(data_ + offset_, count);
    offset_ += count;
    return out;
  }

 private:
  template <typename T>
  T get() {
    T value{};
    if (!ok_ || size_ - offset_ < sizeof(T)) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

std::string header_bytes(const CheckpointKey& key) {
  std::string out;
  put_u64(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, key.campaign.seed);
  put_u64(out, key.campaign.trials);
  put_u64(out, key.threads);
  put_str(out, key.campaign.scenario_cli);
  return out;
}

std::string outcome_payload(const TrialOutcome& outcome) {
  std::string out;
  put_u8(out, outcome.completed ? 1 : 0);
  put_f64(out, outcome.rounds);
  put_f64(out, outcome.spreading);
  put_f64(out, outcome.saturation);
  put_u32(out, static_cast<std::uint32_t>(outcome.metrics.size()));
  for (const auto& [name, value] : outcome.metrics) {
    put_str(out, name);
    put_f64(out, value);
  }
  return out;
}

bool parse_outcome(const std::string& payload, TrialOutcome& out) {
  Cursor cur(payload.data(), payload.size());
  out.completed = cur.get_u8() != 0;
  out.rounds = cur.get_f64();
  out.spreading = cur.get_f64();
  out.saturation = cur.get_f64();
  const std::uint32_t n_metrics = cur.get_u32();
  out.metrics.clear();
  for (std::uint32_t i = 0; cur.ok() && i < n_metrics; ++i) {
    const std::uint32_t len = cur.get_u32();
    std::string name = cur.get_bytes(len);
    const double value = cur.get_f64();
    if (cur.ok()) out.metrics.emplace(std::move(name), value);
  }
  return cur.ok() && cur.at_end();
}

std::string error_payload(const TrialError& error) {
  std::string out;
  put_u64(out, error.graph_seed);
  put_u64(out, error.process_seed);
  put_str(out, error.what);
  return out;
}

bool parse_error(const std::string& payload, std::uint64_t trial,
                 TrialError& out) {
  Cursor cur(payload.data(), payload.size());
  out.trial = static_cast<std::size_t>(trial);
  out.graph_seed = cur.get_u64();
  out.process_seed = cur.get_u64();
  const std::uint32_t len = cur.get_u32();
  out.what = cur.get_bytes(len);
  return cur.ok() && cur.at_end();
}

// A FILE* closed on every path out of its scope, a throw included.
struct FileCloser {
  void operator()(std::FILE* file) const noexcept { std::fclose(file); }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

[[noreturn]] void io_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint " + path + ": " + what);
}

std::string read_whole_file(std::FILE* file, const std::string& path) {
  std::string bytes;
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    bytes.append(buffer, got);
  }
  if (std::ferror(file)) io_error(path, "read failed");
  return bytes;
}

}  // namespace

bool peek_checkpoint_key(const std::string& path, CheckpointKey& out) {
  const FileHandle file{std::fopen(path.c_str(), "rb")};
  if (!file) return false;
  // Fixed-width header prefix: magic, version, seed, trials, threads,
  // cli_len — followed by cli_len bytes of canonical CLI.
  char prefix[8 + 4 + 8 + 8 + 8 + 4];
  if (std::fread(prefix, 1, sizeof prefix, file.get()) != sizeof prefix) {
    return false;
  }
  Cursor cur(prefix, sizeof prefix);
  const std::uint64_t magic = cur.get_u64();
  const std::uint32_t version = cur.get_u32();
  CheckpointKey key;
  key.campaign.seed = cur.get_u64();
  key.campaign.trials = cur.get_u64();
  key.threads = cur.get_u64();
  const std::uint32_t cli_len = cur.get_u32();
  if (!cur.ok() || magic != kMagic || version != kVersion ||
      cli_len > kMaxPayload) {
    return false;
  }
  std::string cli(cli_len, '\0');
  if (std::fread(cli.data(), 1, cli_len, file.get()) != cli_len) return false;
  key.campaign.scenario_cli = std::move(cli);
  out = std::move(key);
  return true;
}

CheckpointJournal::CheckpointJournal(std::string path,
                                     const CheckpointKey& key)
    : path_(std::move(path)) {
  const std::string header = header_bytes(key);
  std::string existing;
  if (const FileHandle file{std::fopen(path_.c_str(), "rb")}) {
    existing = read_whole_file(file.get(), path_);
  }
  if (existing.empty()) {
    // New journal: write the header and start appending after it.
    FileHandle file{std::fopen(path_.c_str(), "wb")};
    if (!file) io_error(path_, "cannot create");
    if (std::fwrite(header.data(), 1, header.size(), file.get()) !=
            header.size() ||
        std::fflush(file.get()) != 0) {
      io_error(path_, "cannot write header");
    }
    file_ = file.release();
    return;
  }
  // Existing journal: the header must bind the same campaign.
  if (existing.size() < header.size() ||
      std::memcmp(existing.data(), header.data(), header.size()) != 0) {
    throw std::invalid_argument(
        "checkpoint " + path_ +
        ": header does not match this campaign (scenario CLI, seed, trials "
        "and threads must all be identical; delete the file to start over)");
  }
  // Replay complete records; stop at the first torn or corrupt frame.
  std::size_t valid_end = header.size();
  Cursor cur(existing.data() + header.size(),
             existing.size() - header.size());
  while (!cur.at_end()) {
    const std::uint32_t kind = cur.get_u32();
    const std::uint64_t trial = cur.get_u64();
    const std::uint32_t len = cur.get_u32();
    if (!cur.ok() || len > kMaxPayload) break;
    const std::string payload = cur.get_bytes(len);
    const std::uint64_t checksum = cur.get_u64();
    if (!cur.ok() || checksum != fnv1a(payload)) break;
    if (kind == kKindOutcome && trial < key.campaign.trials) {
      TrialOutcome outcome;
      if (!parse_outcome(payload, outcome)) break;
      done_[static_cast<std::size_t>(trial)] = std::move(outcome);
    } else if (kind == kKindError) {
      TrialError error;
      if (!parse_error(payload, trial, error)) break;
      replayed_errors_.push_back(std::move(error));
    } else {
      break;  // unknown kind or out-of-range trial: treat as corruption
    }
    valid_end = header.size() + cur.offset();
  }
  replayed_ = done_.size();
  if (valid_end < existing.size() &&
      ::truncate(path_.c_str(), static_cast<off_t>(valid_end)) != 0) {
    io_error(path_, "could not truncate torn tail");
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_) io_error(path_, "cannot reopen for append");
}

CheckpointJournal::~CheckpointJournal() {
  if (file_) std::fclose(file_);
}

const TrialOutcome* CheckpointJournal::find(std::size_t trial) const {
  const auto it = done_.find(trial);
  return it == done_.end() ? nullptr : &it->second;
}

void CheckpointJournal::append_record(std::uint32_t kind, std::uint64_t trial,
                                      const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameOverhead + payload.size());
  put_u32(frame, kind);
  put_u64(frame, trial);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  put_u64(frame, fnv1a(payload));
  const std::lock_guard<std::mutex> lock(mutex_);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    io_error(path_, "append failed (disk full?)");
  }
}

void CheckpointJournal::record(std::size_t trial,
                               const TrialOutcome& outcome) {
  append_record(kKindOutcome, trial, outcome_payload(outcome));
}

void CheckpointJournal::record_error(const TrialError& error) {
  append_record(kKindError, error.trial, error_payload(error));
}

}  // namespace megflood
