#pragma once

// Deterministic, seedable random number generation for all stochastic
// processes in megflood.  Every model takes an explicit 64-bit seed so that
// experiments are reproducible bit-for-bit; we deliberately avoid
// std::mt19937 to keep cross-platform stream identity trivial to audit.

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace megflood {

// SplitMix64: used to expand a single user seed into independent stream
// seeds (one per node / per edge).  Reference: Steele, Lea, Flood (2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256**: the workhorse generator.  Satisfies the C++ named
// requirement UniformRandomBitGenerator so it also plugs into <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    // A zero state is a fixed point of xoshiro; SplitMix64 cannot emit four
    // zeros in a row, so the state is always valid.
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, bound). Lemire's unbiased multiply-shift method.
  // The accept path is inline: a candidate whose low product word is at
  // least `bound` can never be rejected, and for small bounds (a gossip
  // contact, a k-push pick) that is all but every draw.  The rest goes
  // out of line to the exact rejection test.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept {
    assert(bound > 0);
    const __uint128_t m =
        static_cast<__uint128_t>((*this)()) * static_cast<__uint128_t>(bound);
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] {
      return uniform_int_reject(m, bound);
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  // Geometric number of failures before first success, success prob p in
  // (0,1].  Saturates to numeric_limits<uint64_t>::max() if p is tiny
  // enough that the draw overflows — callers that accumulate skips must
  // use geometric_select() (or an equivalent pre-add bound check) so the
  // saturated value cannot wrap their index arithmetic.  p = 1 consumes
  // no draw.
  std::uint64_t geometric(double p) noexcept {
    assert(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 0;
    return geometric_log1m(std::log1p(-p));
  }

  // The geometric(p) draw for p in (0, 1) given log1m_p = log1p(-p), so a
  // run of draws at one p pays for a single log1p (geometric_select).
  std::uint64_t geometric_log1m(double log1m_p) noexcept {
    return geometric_from_bits((*this)(), log1m_p);
  }

  // geometric_log1m as a pure function of the raw generator word it
  // consumes: floor(log(u) / log1m_p) with u = 1 - uniform() in (0, 1].
  static std::uint64_t geometric_from_bits(std::uint64_t bits,
                                           double log1m_p) noexcept {
    const double u = 1.0 - static_cast<double>(bits >> 11) * 0x1.0p-53;
    const double q = std::log(u) / log1m_p;
    // For tiny p the inversion can exceed the uint64 range (or be NaN when
    // both logs underflow); saturate to numeric_limits::max().  Callers
    // interpret the draw as "first success at index draw" over a finite
    // enumeration, so any value at or past their bound means "no
    // success"; saturation therefore preserves the distribution exactly
    // for every enumeration shorter than 2^64.
    //
    // The check reads q, not floor(q), and the conversion truncates; both
    // are exact.  floor(q) >= 0 iff q >= 0 (both fail for NaN and hold
    // for -0.0, which u = 1 gives), and floor(q) >= 2^64 iff q >= 2^64
    // because 2^64 is an integer.  Every q that passes is in [0, 2^64),
    // where truncation toward zero is floor.  So the draws are the
    // floor formula's, without the out-of-line libm floor call that
    // baseline x86-64 (no roundsd) would make.
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    if (!(q >= 0.0) || q >= static_cast<double>(kMax)) return kMax;
    return static_cast<std::uint64_t>(q);
  }

  // Binomial(n, p): number of successes among n Bernoulli(p) trials,
  // sampled by geometric gap counting over the smaller of p and 1 - p, so
  // the expected cost is O(n * min(p, 1 - p)) RNG draws.  This is the
  // batching primitive behind the edge-MEG initializers: in the sparse
  // regimes (p near 0 or 1) a draw over millions of pairs costs a handful
  // of geometrics.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  // Derive a statistically independent child generator (e.g. one per node).
  Rng split() noexcept { return Rng((*this)() ^ 0x6a09e667f3bcc909ULL); }

 private:
  // uniform_int's slow path: `m` is the first candidate's product, whose
  // low word fell below `bound`.
  std::uint64_t uniform_int_reject(__uint128_t m, std::uint64_t bound) noexcept;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// Selects each index in [0, count) independently with probability p and
// calls visit(i) for the selected indices in ascending order, consuming
// one geometric draw per gap (the batch-sampling primitive behind the
// sparse edge-MEG steps).  Overflow-safe: the skip is checked against the
// remaining range before it is added, so a saturated geometric draw ends
// the scan instead of wrapping the index.  Consumes no draws when p <= 0
// or count == 0, and none when p >= 1 (every index is selected).  The
// draws are exactly those of a geometric(p) loop; log1p(-p) is computed
// once per call instead of once per draw.
template <typename Visit>
inline void geometric_select(Rng& rng, std::uint64_t count, double p,
                             Visit&& visit) {
  if (p <= 0.0 || count == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < count; ++i) visit(i);
    return;
  }
  const double log1m_p = std::log1p(-p);
  std::uint64_t i = rng.geometric_log1m(log1m_p);
  while (i < count) {
    visit(i);
    const std::uint64_t skip = rng.geometric_log1m(log1m_p);
    if (skip >= count - i - 1) break;  // next index would pass the end
    i += 1 + skip;
  }
}

// Expand one master seed into `count` per-entity seeds.
std::vector<std::uint64_t> derive_seeds(std::uint64_t master, std::size_t count);

}  // namespace megflood
