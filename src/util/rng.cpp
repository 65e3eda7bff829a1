#include "util/rng.hpp"

namespace megflood {

std::uint64_t Rng::uniform_int_reject(__uint128_t m,
                                      std::uint64_t bound) noexcept {
  // Lemire's method: reject candidates whose low word falls below
  // 2^64 mod bound, which removes the modulo bias.
  const std::uint64_t threshold = -bound % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>((*this)()) * static_cast<__uint128_t>(bound);
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Count successes on the cheaper side: for p > 1/2 count the failures
  // at rate 1 - p instead.  geometric_select visits each success index
  // once, so the draw count is the number of successes plus one.
  const bool flipped = p > 0.5;
  const double rate = flipped ? 1.0 - p : p;
  std::uint64_t hits = 0;
  geometric_select(*this, n, rate, [&](std::uint64_t) { ++hits; });
  return flipped ? n - hits : hits;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t master, std::size_t count) {
  SplitMix64 sm(master);
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = sm.next();
  return seeds;
}

}  // namespace megflood
