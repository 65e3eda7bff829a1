#pragma once

// Process-level resource queries shared by the trial runner and the test
// suite: peak resident set size (extracted from the PR 5 ru_maxrss guard
// in tests/test_sparse_storage.cpp) plus a soft-budget check that feeds
// the runner's warning channel.  The budget is *soft* by design — the
// graceful-degradation contract is "finish the campaign and warn", never
// "abort mid-run because an allocator high-water mark moved".

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

namespace megflood {

// Peak resident set size of this process in bytes: the high-water mark
// of its own address space (VmHWM in /proc/self/status), or ru_maxrss
// where /proc has none (callers must treat 0 as "unknown", not
// "tiny").  On Linux ru_maxrss also holds
// the peak of the address space that execve replaced, so a program that
// a 20 MB interpreter forks and executes reads at least 20 MB there.
inline std::uint64_t peak_rss_bytes() noexcept {
#if defined(__linux__)
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) return static_cast<std::uint64_t>(kib) * 1024;
  }
#endif
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

// False when peak-RSS assertions would be meaningless: sanitizer runtimes
// (ASan shadow memory and TSan's shadow cells + per-thread state alike)
// inflate RSS far past the budgets the regression guards encode, so
// guarded tests skip the numeric bound there while still exercising the
// construction/step paths, the runner's soft-budget warning stays quiet
// rather than crying wolf over shadow pages, and the serve worker sets
// no memory budget.
inline constexpr bool rss_guard_reliable() noexcept {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

// "512 MiB"-style rendering for warnings and error messages.  No commas:
// the strings travel inside one CSV cell.
inline std::string format_bytes(std::uint64_t bytes) {
  const char* unit = "B";
  double value = static_cast<double>(bytes);
  if (bytes >= (std::uint64_t{1} << 30)) {
    value /= static_cast<double>(std::uint64_t{1} << 30);
    unit = "GiB";
  } else if (bytes >= (std::uint64_t{1} << 20)) {
    value /= static_cast<double>(std::uint64_t{1} << 20);
    unit = "MiB";
  } else if (bytes >= (std::uint64_t{1} << 10)) {
    value /= static_cast<double>(std::uint64_t{1} << 10);
    unit = "KiB";
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.3g %s", value, unit);
  return buffer;
}

// Soft RSS budget check: returns a warning line when the process peak RSS
// exceeds `budget_bytes`, std::nullopt when inside the budget or when the
// platform cannot report RSS.  budget_bytes == 0 disables the check.
inline std::optional<std::string> check_soft_rss_budget(
    std::uint64_t budget_bytes) {
  if (budget_bytes == 0) return std::nullopt;
  const std::uint64_t peak = peak_rss_bytes();
  if (peak == 0 || peak <= budget_bytes) return std::nullopt;
  return "peak RSS " + format_bytes(peak) + " exceeded the soft budget " +
         format_bytes(budget_bytes) +
         " (results are complete; consider storage=sparse or smaller n)";
}

}  // namespace megflood
