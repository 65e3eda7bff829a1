#pragma once

// FNV-1a folding for the per-step stream pins of the edge-MEG engines
// (the *StepStreamIsPinned tests): each pin folds a model's state
// vectors after every step into one hash, so any moved draw or byte
// changes it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace megflood {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// FNV-1a over a vector's bytes, its length first.
template <typename T>
std::uint64_t fnv_mix_bytes(std::uint64_t h, const std::vector<T>& values) {
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(values.size(), 8);
  const auto* data = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t b = 0; b < values.size() * sizeof(T); ++b) mix(data[b], 1);
  return h;
}

}  // namespace megflood
