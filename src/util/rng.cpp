#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

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

GeometricTable::GeometricTable(double log1m_p) noexcept : log1m_p_(log1m_p) {
  const auto quotient = [log1m_p](std::uint64_t m) {
    return Rng::geometric_quotient(m << 11, log1m_p);
  };
  constexpr int kShift = 53 - kCellBits;
  constexpr double kMargin = 0x1.0p-40;
  double lo = quotient(0);
  for (std::size_t c = 0; c < kCells; ++c) {
    const std::uint64_t next = c + 1 < kCells
                                   ? std::uint64_t{c + 1} << kShift
                                   : (std::uint64_t{1} << 53) - 1;
    const double hi = quotient(next);
    const double low = std::max(lo - (std::fabs(lo) + 1.0) * kMargin, 0.0);
    const double high = hi + (std::fabs(hi) + 1.0) * kMargin;
    std::uint8_t cell = kUncertified;
    if (high < kUncertified) {
      const auto g = static_cast<std::uint8_t>(low);
      if (high < g + 1.0) cell = g;
    }
    cells_[c] = cell;
    lo = hi;
  }
}

double GeometricTable::certified_share() const noexcept {
  std::size_t certified = 0;
  for (const std::uint8_t cell : cells_) certified += cell != kUncertified;
  return static_cast<double>(certified) / kCells;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t master, std::size_t count) {
  SplitMix64 sm(master);
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = sm.next();
  return seeds;
}

}  // namespace megflood
