#pragma once

// Heterogeneous two-state edge-MEG: every potential edge has its *own*
// (p_e, q_e) pair.  The paper's generalized edge-MEG framework (Appendix
// A) only needs edges to evolve independently; Theorem 1's Density
// Condition is then governed by alpha = min_e p_e/(p_e + q_e) and the
// epoch length by the slowest edge, M = max_e T_mix(p_e, q_e).  This
// model exercises exactly that worst-edge structure — the ablation
// bench_a3 compares it against a homogeneous model matched to the same
// worst-edge alpha.
//
// Sampling engine: edges are bucketed by rate class (distinct (p, q)
// pairs, e.g. the two classes of two_speed_rates) and, within a class, by
// current on/off state.  Each step geometric-skips over every bucket with
// the class's envelope rate, so only the edges that actually flip are
// touched — O(flips + |E_t|) instead of one Bernoulli per pair.  When the
// sampler draws more distinct rates than kMaxExactClasses (e.g. the
// continuous uniform_alpha_rates), all edges share one class whose
// envelope is the maximum rate and candidates are thinned by an
// acceptance draw p_e / p_max (exact by superposition), which keeps the
// step output-sensitive as long as max/mean rates are comparable.
//
// Storage modes (meg/storage.hpp).  The *dense* engine above stores the
// per-pair rates, rate-class ids and on/off bytes — O(n^2) memory, the
// reference implementation.  The *sparse* engine stores only the sorted
// on-set (meg/pair_set.hpp, as dense does too): per-pair rates are
// re-derived on demand from a counter-based per-pair RNG (each pair's
// stream seed is the pair-index entry of the construction seed's
// SplitMix64 stream, so rates stay a pure function of the seed without
// materializing them), and both initialization and the birth scan run
// as batched Binomial draws over the implicit off population thinned by
// rate_e / envelope (exact by superposition), in the sparse
// GeneralEdgeMEG's single walk of the set (walk_complement).  The caller
// supplies the law's analytic envelopes and Theorem-1 inputs as a
// RateBounds (the ready-made *_bounds factories below compute them);
// memory is O(#on), so the paper's sparse regimes run at n >= 32768.
// Sparse assigns per-pair rates from the same iid law through a
// different stream, so sparse-vs-dense equivalence is distributional
// (tests/test_sparse_storage.cpp); dense behavior is unchanged
// bit-for-bit.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "markov/two_state.hpp"
#include "meg/pair_set.hpp"
#include "meg/storage.hpp"
#include "util/rng.hpp"

namespace megflood {

// Draws the (p, q) of one edge; called once per pair at construction with
// a dedicated RNG (so the assignment is a pure function of the seed).
using EdgeRateSampler = std::function<TwoStateParams(Rng&)>;

// Analytic description of a rate law's support, required by the sparse
// engine: hard envelopes for the superposition thinning (every drawn rate
// must satisfy birth <= max_birth, death <= max_death — violations are a
// logic error and throw) and the law-level Theorem-1 inputs that the
// dense engine computes from the realized draws.
struct RateBounds {
  double max_birth = 0.0;
  double max_death = 0.0;
  double min_alpha = 0.0;   // inf over the law's support of p/(p+q)
  double max_alpha = 0.0;   // sup over the law's support of p/(p+q)
  std::size_t max_mixing = 0;  // sup of T_mix over the support
};

class HeterogeneousEdgeMEG final : public DynamicGraph {
 public:
  // Dense storage (the historical ctor, unchanged behavior).
  HeterogeneousEdgeMEG(std::size_t num_nodes, EdgeRateSampler sampler,
                       std::uint64_t seed);

  // Storage-selecting ctor.  kDense ignores `bounds` beyond validation
  // and matches the 3-arg ctor bit-for-bit; kSparse requires sound
  // bounds; kAuto goes sparse above the memory threshold.
  HeterogeneousEdgeMEG(std::size_t num_nodes, EdgeRateSampler sampler,
                       std::uint64_t seed, MegStorage storage,
                       const RateBounds& bounds);

  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  // Re-samples edge *states* from their stationary laws; the per-edge
  // rates themselves are part of the model identity and stay fixed.
  void reset(std::uint64_t seed) override;

  // Theorem-1 inputs for this instance.  Dense: extremes over the
  // realized per-pair draws.  Sparse: the law-level bounds supplied at
  // construction (a sup over the support, hence conservative).
  double min_alpha() const noexcept { return min_alpha_; }
  double max_alpha() const noexcept { return max_alpha_; }
  std::size_t max_mixing_time() const noexcept { return max_mixing_; }

  // The resolved storage mode (never kAuto).
  MegStorage storage() const noexcept {
    return sparse_ ? MegStorage::kSparse : MegStorage::kDense;
  }

  // Dense-mode footprint: rates (16 B) + class id + on byte + one bucket
  // key (8 B) per pair.  What kAuto weighs against the threshold.
  static std::uint64_t dense_footprint_bytes(std::size_t num_nodes) noexcept;

  // The mode `requested` resolves to (never kAuto) at `num_nodes`: kAuto
  // goes sparse when the dense footprint passes the threshold.  Throws
  // std::invalid_argument when it resolves to sparse with unsound
  // `bounds`.
  static MegStorage resolve_storage(std::size_t num_nodes,
                                    MegStorage requested,
                                    const RateBounds& bounds);

  // O(1) dense; sparse re-derives from the pair's counter-based stream.
  TwoStateParams edge_rates(NodeId i, NodeId j) const;

  // Current on/off state of pair {i, j} (i != j); O(1) dense,
  // O(log #on) sparse.  The equivalence suite uses this to cross-check
  // the incrementally maintained snapshot against a brute-force
  // recomputation.
  bool edge_on(NodeId i, NodeId j) const;

  // Number of rate classes the skip engine uses: the count of distinct
  // (p, q) pairs, or 1 when that count exceeds kMaxExactClasses and the
  // engine falls back to one envelope-thinned class.  Sparse mode always
  // runs the single envelope-thinned class.
  std::size_t num_rate_classes() const noexcept {
    return sparse_ ? 1 : classes_.size();
  }

  static constexpr std::size_t kMaxExactClasses = 64;

  // The sorted on-set, the key array the snapshot borrows (both modes).
  const PairKeys& set_keys() const noexcept {
    return on_set_.keys;
  }

 private:
  struct RateClass {
    double env_birth = 0.0;  // envelope (max) birth rate over members
    double env_death = 0.0;
    bool exact = true;       // all members share the envelope rates
    std::vector<std::uint64_t> off;  // packed (i << 32 | j) keys
    std::vector<std::uint64_t> on;
  };

  std::size_t pair_index(NodeId i, NodeId j) const;
  void initialize();
  void initialize_sparse();
  void step_dense();
  void step_sparse();
  // Sparse: the pair's rates, re-derived from its counter-based stream
  // (pure function of the construction seed and the pair index).
  TwoStateParams derive_rates(std::uint64_t pair_idx) const;

  std::size_t n_;
  Rng rng_;
  std::vector<TwoStateParams> rates_;   // dense: row-major upper triangle
  std::vector<std::uint8_t> class_of_;  // dense: rate-class id per pair
  std::vector<RateClass> classes_;
  std::vector<char> on_;                // dense: per-pair on/off state
  double min_alpha_ = 1.0;
  double max_alpha_ = 0.0;
  std::size_t max_mixing_ = 0;

  // Sparse mode: the on-set IS the state; rates are derived on demand.
  bool sparse_ = false;
  RateBounds bounds_;
  EdgeRateSampler sampler_;       // retained for on-demand derivation
  std::uint64_t rate_seed_ = 0;

  // The current edge set.
  PairSet on_set_;

  // Step scratch (capacity reused across steps).
  struct Flip {
    std::uint32_t cls;
    std::uint64_t pos;
  };
  std::vector<Flip> deaths_;
  std::vector<Flip> births_;
  std::vector<std::uint64_t> rank_scratch_;  // sparse subset draws

  Snapshot snapshot_;
};

// Ready-made samplers.

// Each edge draws alpha uniform in [alpha_lo, alpha_hi] and a speed
// lambda = p + q uniform in [speed_lo, speed_hi]; then p = alpha * lambda
// and q = (1 - alpha) * lambda.  This parameterization hits the requested
// alpha exactly (both rates stay in [0, 1] by construction) and makes the
// per-edge mixing time Theta(1 / lambda).
EdgeRateSampler uniform_alpha_rates(double speed_lo, double speed_hi,
                                    double alpha_lo, double alpha_hi);

// A fraction `slow_fraction` of edges are "slow" (rates scaled down by
// `slow_factor`, same alpha): stresses the max-mixing epoch length.
EdgeRateSampler two_speed_rates(TwoStateParams base, double slow_fraction,
                                double slow_factor);

// Analytic RateBounds for the ready-made samplers (validated with the
// same argument checks as the sampler factories), for the sparse engine.
RateBounds uniform_alpha_bounds(double speed_lo, double speed_hi,
                                double alpha_lo, double alpha_hi);
RateBounds two_speed_bounds(TwoStateParams base, double slow_fraction,
                            double slow_factor);

}  // namespace megflood
