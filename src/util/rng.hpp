#pragma once

// Deterministic, seedable random number generation for all stochastic
// processes in megflood.  Every model takes an explicit 64-bit seed so that
// experiments are reproducible bit-for-bit; we deliberately avoid
// std::mt19937 to keep cross-platform stream identity trivial to audit.

#include <cassert>
#include <cmath>
#include <cstddef>
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

  // The quotient geometric_from_bits floors: log(u) / log1m_p with
  // u = 1 - uniform() in (0, 1] from the raw generator word.
  static double geometric_quotient(std::uint64_t bits,
                                   double log1m_p) noexcept {
    const double u = 1.0 - static_cast<double>(bits >> 11) * 0x1.0p-53;
    return std::log(u) / log1m_p;
  }

  // geometric_log1m as a pure function of the raw generator word it
  // consumes: floor(geometric_quotient(bits, log1m_p)).
  static std::uint64_t geometric_from_bits(std::uint64_t bits,
                                           double log1m_p) noexcept {
    const double q = geometric_quotient(bits, log1m_p);
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

// geometric_from_bits(bits, log1m_p) at one log1m_p, by a table lookup
// wherever the lookup is certified to give the same value, and by
// geometric_from_bits itself everywhere else.
//
// The table has one byte per cell of 2^41 consecutive m = bits >> 11,
// indexed by the word's top 12 bits.  The draw is floor(q(m)),
// q(m) = log(1 - m 2^-53) / log1m_p, and the true q is increasing in m,
// so over a cell it lies between q at the cell's first m and q at the
// next cell's first m (the last cell: its own last m).  The build
// evaluates those 4097 quotients with geometric_quotient and widens each
// by (|q| + 1) 2^-40, the lower end clamped at 0.  A cell stores g when
// both widened ends floor to the same g < 255, and kUncertified
// otherwise: every cell that straddles a step of the floor, and the
// saturated tail (g >= 255, the last cells), falls back to
// geometric_from_bits, which stays the reference.  geometric_select says
// why a certified cell is exact.
class GeometricTable {
 public:
  static constexpr int kCellBits = 12;
  static constexpr std::size_t kCells = std::size_t{1} << kCellBits;
  static constexpr std::uint8_t kUncertified = 255;

  // log1m_p = log1p(-p) for p in (0, 1).
  explicit GeometricTable(double log1m_p) noexcept;

  std::uint64_t draw(std::uint64_t bits) const noexcept {
    const std::uint8_t g = cells_[bits >> (64 - kCellBits)];
    if (g != kUncertified) [[likely]] return g;
    return Rng::geometric_from_bits(bits, log1m_p_);
  }

  // The share of cells (and so of uniform words) served by the lookup.
  double certified_share() const noexcept;

 private:
  double log1m_p_;
  std::uint8_t cells_[kCells];
};

// geometric_select takes the table when p >= kGeometricTableMinP (below
// it the draws spread past the one-byte cells: 95% of words are certified
// at p = 1/32, 86% at p = 0.01) and when the expected number of draws,
// count * p, pays for the build.  Measured on a 4-CPU 2 GHz x86-64 host
// (GCC 12 -O2, glibc 2.36, one pinned core): the build's 4097 log and
// divide evaluations take 45-49 us, and a lookup saves ~8 ns per draw
// against the libm draw.  Whether the loop only counts its visits (the
// Rng::binomial loop) or draws and branches inside each visit, the
// table broke even at 5000-6000 expected draws for p = 0.5 and 0.375 and
// at 6000-7000 for p = 1/32, and won at 8000 for all three.
inline constexpr double kGeometricTableMinP = 1.0 / 32;
inline constexpr double kGeometricTableMinDraws = 8192;

// The skip loop of geometric_select over a draw() that returns the
// geometric draws in stream order.
template <typename Draw, typename Visit>
inline void geometric_scan(std::uint64_t count, Draw&& draw, Visit&& visit) {
  std::uint64_t i = draw();
  while (i < count) {
    visit(i);
    const std::uint64_t skip = draw();
    if (skip >= count - i - 1) break;  // next index would pass the end
    i += 1 + skip;
  }
}

// Selects each index in [0, count) independently with probability p and
// calls visit(i) for the selected indices in ascending order, consuming
// one geometric draw per gap (the batch-sampling primitive behind the
// sparse edge-MEG steps).  Overflow-safe: the skip is checked against the
// remaining range before it is added, so a saturated geometric draw ends
// the scan instead of wrapping the index.  Consumes no draws when p <= 0
// or count == 0, and none when p >= 1 (every index is selected).  The
// draws are exactly those of a geometric(p) loop; log1p(-p) is computed
// once per call instead of once per draw.
//
// A large p with enough expected draws reads them through a
// GeometricTable on the stack, which gives geometric_from_bits's value
// for every word, so the selection does not depend on which path ran.
// The one assumption about libm: std::log is within 2^-50 of the true
// log relative to its size (a few ulps; the C standard leaves libm's
// accuracy open, and glibc's log claims under one ulp).  With the
// division's half ulp, each computed quotient is then within |q| 2^-49
// of the true one.  A word inside a certified cell has a true quotient
// between the true quotients at the cell's two ends, so its computed
// quotient lies within two such errors of the computed ends, far inside
// the table's (|q| + 1) 2^-40 margin, and floors to the cell's g.  No
// computed quotient is below -0.0 (log(u) <= 0 for u <= 1), which is
// why the lower end may be clamped at 0: geometric_from_bits draws -0.0
// as 0 too.  GeometricTable.GivesTheLibmDrawForEveryWord in
// tests/test_rng.cpp checks the assumption where the tests run.
//
// Always inlined: with two loops the body is past GCC's inlining budget,
// and a caller that draws on a local copy of the stream (the two-state
// births, Rng::binomial) must keep that copy out of memory.
template <typename Visit>
[[gnu::always_inline]] inline void geometric_select(Rng& rng,
                                                    std::uint64_t count,
                                                    double p, Visit&& visit) {
  if (p <= 0.0 || count == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < count; ++i) visit(i);
    return;
  }
  const double log1m_p = std::log1p(-p);
  if (p >= kGeometricTableMinP &&
      static_cast<double>(count) * p >= kGeometricTableMinDraws) {
    const GeometricTable table(log1m_p);
    geometric_scan(count, [&] { return table.draw(rng()); }, visit);
    return;
  }
  geometric_scan(count, [&] { return rng.geometric_log1m(log1m_p); }, visit);
}

// Expand one master seed into `count` per-entity seeds.
std::vector<std::uint64_t> derive_seeds(std::uint64_t master, std::size_t count);

}  // namespace megflood
