#include "meg/heterogeneous_edge_meg.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <stdexcept>
#include <utility>

#include "meg/pair_index.hpp"

namespace megflood {

HeterogeneousEdgeMEG::HeterogeneousEdgeMEG(std::size_t num_nodes,
                                           EdgeRateSampler sampler,
                                           std::uint64_t seed)
    : HeterogeneousEdgeMEG(num_nodes, std::move(sampler), seed,
                           MegStorage::kDense, RateBounds{}) {}

std::uint64_t HeterogeneousEdgeMEG::dense_footprint_bytes(
    std::size_t num_nodes) noexcept {
  // Per pair: (p, q) rates (16 B), class id, on/off byte, bucket key (8 B).
  return pair_count(num_nodes) * 26;
}

MegStorage HeterogeneousEdgeMEG::resolve_storage(std::size_t num_nodes,
                                                 MegStorage requested,
                                                 const RateBounds& bounds) {
  const bool sparse =
      requested == MegStorage::kSparse ||
      (requested == MegStorage::kAuto &&
       meg_auto_prefers_sparse(dense_footprint_bytes(num_nodes)));
  if (!sparse) return MegStorage::kDense;
  // The thinning envelopes and Theorem-1 inputs must be sound before a
  // single rate is drawn; derive_rates() cross-checks every draw against
  // them.
  if (!(bounds.max_birth > 0.0 && bounds.max_birth <= 1.0 &&
        bounds.max_death > 0.0 && bounds.max_death <= 1.0)) {
    throw std::invalid_argument(
        "HeterogeneousEdgeMEG: sparse storage needs rate envelopes "
        "(RateBounds::max_birth / max_death) in (0, 1]");
  }
  if (!(bounds.min_alpha > 0.0 && bounds.min_alpha <= bounds.max_alpha &&
        bounds.max_alpha < 1.0)) {
    throw std::invalid_argument(
        "HeterogeneousEdgeMEG: sparse storage needs alpha bounds with "
        "0 < min_alpha <= max_alpha < 1");
  }
  return MegStorage::kSparse;
}

HeterogeneousEdgeMEG::HeterogeneousEdgeMEG(std::size_t num_nodes,
                                           EdgeRateSampler sampler,
                                           std::uint64_t seed,
                                           MegStorage storage,
                                           const RateBounds& bounds)
    : n_(num_nodes), rng_(seed) {
  if (num_nodes < 2) {
    throw std::invalid_argument("HeterogeneousEdgeMEG: need at least 2 nodes");
  }
  if (!sampler) {
    throw std::invalid_argument("HeterogeneousEdgeMEG: null sampler");
  }
  sparse_ = resolve_storage(n_, storage, bounds) == MegStorage::kSparse;
  if (sparse_) {
    bounds_ = bounds;
    sampler_ = std::move(sampler);
    rate_seed_ = seed ^ 0x5bf03635d1f4bb21ULL;
    min_alpha_ = bounds_.min_alpha;
    max_alpha_ = bounds_.max_alpha;
    max_mixing_ = bounds_.max_mixing;
    snapshot_.reset(n_);
    initialize_sparse();
    return;
  }
  const std::size_t pairs = pair_count(n_);
  rates_.reserve(pairs);
  // Rates come from a dedicated stream so the topology identity depends
  // only on the construction seed, not on how many state steps follow.
  Rng rate_rng(seed ^ 0x5bf03635d1f4bb21ULL);
  for (std::size_t e = 0; e < pairs; ++e) {
    const TwoStateParams rates = sampler(rate_rng);
    const TwoStateChain chain(rates);  // validates the pair
    min_alpha_ = std::min(min_alpha_, chain.stationary_on());
    max_alpha_ = std::max(max_alpha_, chain.stationary_on());
    max_mixing_ = std::max(max_mixing_, chain.mixing_time());
    rates_.push_back(rates);
  }

  // Bucket edges by distinct (p, q) pair; beyond kMaxExactClasses fall
  // back to a single envelope class thinned by acceptance draws.  Rates
  // are keyed by bit pattern, so classes are exact (no epsilon grouping).
  class_of_.assign(pairs, 0);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint8_t> ids;
  bool overflow = false;
  for (std::size_t e = 0; e < pairs && !overflow; ++e) {
    const auto key = std::make_pair(std::bit_cast<std::uint64_t>(rates_[e].birth_rate),
                                    std::bit_cast<std::uint64_t>(rates_[e].death_rate));
    const auto it = ids.find(key);
    if (it != ids.end()) {
      class_of_[e] = it->second;
    } else if (ids.size() < kMaxExactClasses) {
      const auto id = static_cast<std::uint8_t>(ids.size());
      ids.emplace(key, id);
      class_of_[e] = id;
    } else {
      overflow = true;
    }
  }
  if (overflow) {
    classes_.assign(1, RateClass{});
    auto& cls = classes_.front();
    cls.exact = false;
    for (const auto& r : rates_) {
      cls.env_birth = std::max(cls.env_birth, r.birth_rate);
      cls.env_death = std::max(cls.env_death, r.death_rate);
    }
    std::fill(class_of_.begin(), class_of_.end(), std::uint8_t{0});
  } else {
    classes_.assign(ids.size(), RateClass{});
    for (const auto& [key, id] : ids) {
      classes_[id].env_birth = std::bit_cast<double>(key.first);
      classes_[id].env_death = std::bit_cast<double>(key.second);
    }
  }

  on_.resize(pairs, 0);
  snapshot_.reset(n_);
  initialize();
}

std::size_t HeterogeneousEdgeMEG::pair_index(NodeId i, NodeId j) const {
  assert(i < j && j < n_);
  return pair_index_of(n_, i, j);
}

TwoStateParams HeterogeneousEdgeMEG::derive_rates(
    std::uint64_t pair_idx) const {
  // The pair's stream seed is the pair_idx-th entry of
  // derive_seeds(rate_seed_, pairs), computed in O(1): SplitMix64's k-th
  // output is finalize(master + (k + 1) * gamma), so seeding at
  // master + k * gamma and taking one next() lands exactly there.
  SplitMix64 sm(rate_seed_ + pair_idx * 0x9e3779b97f4a7c15ULL);
  Rng pair_rng(sm.next());
  const TwoStateParams r = sampler_(pair_rng);
  const double alpha = r.birth_rate / (r.birth_rate + r.death_rate);
  constexpr double kSlack = 1.0 + 1e-9;  // fp slack on analytic bounds
  if (!(r.birth_rate >= 0.0 && r.death_rate >= 0.0 &&
        r.birth_rate + r.death_rate > 0.0 &&
        r.birth_rate <= bounds_.max_birth * kSlack &&
        r.death_rate <= bounds_.max_death * kSlack &&
        alpha <= bounds_.max_alpha * kSlack &&
        alpha * kSlack >= bounds_.min_alpha)) {
    throw std::logic_error(
        "HeterogeneousEdgeMEG: sampled rates violate the declared "
        "RateBounds — the sparse engine's superposition thinning would "
        "be biased");
  }
  return r;
}

TwoStateParams HeterogeneousEdgeMEG::edge_rates(NodeId i, NodeId j) const {
  if (i == j || i >= n_ || j >= n_) {
    throw std::out_of_range("edge_rates: bad pair");
  }
  if (i > j) std::swap(i, j);
  if (sparse_) return derive_rates(pair_index(i, j));
  return rates_[pair_index(i, j)];
}

bool HeterogeneousEdgeMEG::edge_on(NodeId i, NodeId j) const {
  if (i == j || i >= n_ || j >= n_) {
    throw std::out_of_range("edge_on: bad pair");
  }
  if (i > j) std::swap(i, j);
  if (sparse_) {
    return std::binary_search(on_set_.keys.begin(), on_set_.keys.end(),
                              pack_pair(i, j));
  }
  return on_[pair_index(i, j)] != 0;
}

void HeterogeneousEdgeMEG::initialize_sparse() {
  // Stationary start over the implicit population: every pair is on with
  // its own alpha_e = p_e / (p_e + q_e).  Binomial(pairs, max_alpha)
  // candidate slots, uniformly placed (the complement ranks of an empty
  // set), each thinned by alpha_e / max_alpha — by superposition exactly
  // iid Bernoulli(alpha_e) per pair, in O(#on) memory and
  // O(alpha_max * pairs) RNG draws.
  // The ranks over the empty set are pair indices, walked in ascending
  // order.
  draw_complement_ranks(rng_, n_, 0, bounds_.max_alpha, rank_scratch_);
  on_set_.keys.clear();
  PairSetWriter out(on_set_, n_, rank_scratch_);
  walk_complement(
      n_, {}, rank_scratch_, [](std::size_t) {},
      [&](std::size_t r, std::uint64_t key) {
        const TwoStateParams rates = derive_rates(rank_scratch_[r]);
        const double alpha =
            rates.birth_rate / (rates.birth_rate + rates.death_rate);
        out.emit(key, alpha >= bounds_.max_alpha ||
                          rng_.bernoulli(alpha / bounds_.max_alpha));
      });
  out.finish(snapshot_);
}

void HeterogeneousEdgeMEG::initialize() {
  if (sparse_) {
    initialize_sparse();
    return;
  }
  for (auto& cls : classes_) {
    cls.off.clear();
    cls.on.clear();
  }
  on_set_.keys.clear();
  // Same per-pair stationary draws (and RNG stream) as the historical
  // initializer, so initial states match the reference sampler exactly.
  std::size_t e = 0;
  for (NodeId i = 0; i + 1 < n_; ++i) {
    for (NodeId j = i + 1; j < n_; ++j, ++e) {
      const auto& r = rates_[e];
      const bool on =
          rng_.bernoulli(r.birth_rate / (r.birth_rate + r.death_rate));
      on_[e] = on ? 1 : 0;
      const std::uint64_t key = pack_pair(i, j);
      auto& cls = classes_[class_of_[e]];
      (on ? cls.on : cls.off).push_back(key);
      if (on) on_set_.keys.push_back(key);  // ascending e => sorted
    }
  }
  on_set_.merge(n_, snapshot_);
}

void HeterogeneousEdgeMEG::step() {
  if (sparse_) {
    step_sparse();
  } else {
    step_dense();
  }
  advance_clock();
}

void HeterogeneousEdgeMEG::step_sparse() {
  // One envelope class over the whole (mostly implicit) population.
  // Deaths: geometric-skip the on-set at max_death, thin by
  // q_e / max_death.  Births: complement ranks drawn over the implicit
  // off population (the complement of the on-set) at max_birth, each
  // thinned by p_e / max_birth as the walk below reaches it, in ascending
  // order.  Both exact by superposition, both against the pre-step
  // on-set, so no edge flips twice in a step.
  const std::uint64_t* on = on_set_.keys.data();
  const std::size_t size = on_set_.keys.size();
  PairKeys& died = on_set_.died;
  died.clear();
  geometric_select(rng_, size, bounds_.max_death, [&](std::uint64_t pos) {
    const TwoStateParams r = derive_rates(pair_index_from_key(n_, on[pos]));
    if (r.death_rate >= bounds_.max_death ||
        rng_.bernoulli(r.death_rate / bounds_.max_death)) {
      died.push_back(on[pos]);
    }
  });
  draw_complement_ranks(rng_, n_, size, bounds_.max_birth, rank_scratch_);

  // One walk writes the next on-set in place and lends it to the
  // snapshot: it drops the dead (ascending, closed by kNoKey) and keeps
  // the births that pass.
  PairSetWriter out(on_set_, n_, rank_scratch_);
  died.push_back(kNoKey);
  const std::uint64_t* dead = died.data();
  const std::uint64_t* keys = out.keys();
  walk_complement(
      n_, {keys, size}, rank_scratch_,
      [&](std::size_t pos) {
        const bool dies = keys[pos] == *dead;
        dead += dies;
        out.emit(keys[pos], !dies);
      },
      [&](std::size_t, std::uint64_t key) {
        const TwoStateParams r = derive_rates(pair_index_from_key(n_, key));
        out.emit(key, r.birth_rate >= bounds_.max_birth ||
                          rng_.bernoulli(r.birth_rate / bounds_.max_birth));
      });
  out.finish(snapshot_);
}

void HeterogeneousEdgeMEG::step_dense() {
  // Phase 1 (consumes RNG): per class, geometric-skip over the on-bucket
  // with the envelope death rate and the off-bucket with the envelope
  // birth rate.  Inexact (envelope) classes thin each candidate with an
  // acceptance draw rate_e / envelope, which recovers each edge's exact
  // per-step flip probability.  All scans run against the pre-step
  // buckets, so an edge never flips twice in one step.
  deaths_.clear();
  births_.clear();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    auto& cls = classes_[c];
    geometric_select(rng_, cls.on.size(), cls.env_death,
                     [&](std::uint64_t pos) {
                       if (!cls.exact) {
                         const auto& r = rates_[pair_index_from_key(n_, cls.on[pos])];
                         if (!rng_.bernoulli(r.death_rate / cls.env_death)) {
                           return;
                         }
                       }
                       deaths_.push_back({static_cast<std::uint32_t>(c), pos});
                     });
    geometric_select(rng_, cls.off.size(), cls.env_birth,
                     [&](std::uint64_t pos) {
                       if (!cls.exact) {
                         const auto& r = rates_[pair_index_from_key(n_, cls.off[pos])];
                         if (!rng_.bernoulli(r.birth_rate / cls.env_birth)) {
                           return;
                         }
                       }
                       births_.push_back({static_cast<std::uint32_t>(c), pos});
                     });
  }

  // Phase 2 (no RNG): apply deaths then births.  Positions were recorded
  // ascending per bucket; reverse iteration processes them descending, so
  // each swap-remove only disturbs already-handled positions, and the
  // appends (dead keys onto off-buckets, born keys onto on-buckets) land
  // past every recorded position.
  for (auto it = deaths_.rbegin(); it != deaths_.rend(); ++it) {
    auto& cls = classes_[it->cls];
    const std::uint64_t key = cls.on[it->pos];
    cls.on[it->pos] = cls.on.back();
    cls.on.pop_back();
    cls.off.push_back(key);
    on_[pair_index_from_key(n_, key)] = 0;
    on_set_.died.push_back(key);
  }
  for (auto it = births_.rbegin(); it != births_.rend(); ++it) {
    auto& cls = classes_[it->cls];
    const std::uint64_t key = cls.off[it->pos];
    cls.off[it->pos] = cls.off.back();
    cls.off.pop_back();
    cls.on.push_back(key);
    on_[pair_index_from_key(n_, key)] = 1;
    on_set_.born.push_back(key);
  }

  // The reverse walk lists the flips in no particular key order.
  std::sort(on_set_.died.begin(), on_set_.died.end());
  std::sort(on_set_.born.begin(), on_set_.born.end());
  on_set_.merge(n_, snapshot_);
}

void HeterogeneousEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

EdgeRateSampler uniform_alpha_rates(double speed_lo, double speed_hi,
                                    double alpha_lo, double alpha_hi) {
  if (!(0.0 < speed_lo && speed_lo <= speed_hi && speed_hi <= 1.0)) {
    throw std::invalid_argument("uniform_alpha_rates: bad speed range");
  }
  if (!(0.0 < alpha_lo && alpha_lo <= alpha_hi && alpha_hi < 1.0)) {
    throw std::invalid_argument("uniform_alpha_rates: bad alpha range");
  }
  return [=](Rng& rng) {
    const double lambda = rng.uniform(speed_lo, speed_hi);
    const double alpha = rng.uniform(alpha_lo, alpha_hi);
    return TwoStateParams{alpha * lambda, (1.0 - alpha) * lambda};
  };
}

EdgeRateSampler two_speed_rates(TwoStateParams base, double slow_fraction,
                                double slow_factor) {
  if (slow_fraction < 0.0 || slow_fraction > 1.0) {
    throw std::invalid_argument("two_speed_rates: bad fraction");
  }
  if (slow_factor <= 0.0 || slow_factor > 1.0) {
    throw std::invalid_argument("two_speed_rates: factor must be in (0,1]");
  }
  (void)TwoStateChain(base);  // validate
  return [=](Rng& rng) {
    if (rng.bernoulli(slow_fraction)) {
      return TwoStateParams{base.birth_rate * slow_factor,
                            base.death_rate * slow_factor};
    }
    return base;
  };
}

RateBounds uniform_alpha_bounds(double speed_lo, double speed_hi,
                                double alpha_lo, double alpha_hi) {
  if (!(0.0 < speed_lo && speed_lo <= speed_hi && speed_hi <= 1.0)) {
    throw std::invalid_argument("uniform_alpha_bounds: bad speed range");
  }
  if (!(0.0 < alpha_lo && alpha_lo <= alpha_hi && alpha_hi < 1.0)) {
    throw std::invalid_argument("uniform_alpha_bounds: bad alpha range");
  }
  RateBounds b;
  // p = alpha * lambda and q = (1 - alpha) * lambda over the rectangle
  // [alpha_lo, alpha_hi] x [speed_lo, speed_hi].
  b.max_birth = alpha_hi * speed_hi;
  b.max_death = (1.0 - alpha_lo) * speed_hi;
  b.min_alpha = alpha_lo;
  b.max_alpha = alpha_hi;
  // tv_after(t) = |1 - lambda|^t * max(alpha, 1 - alpha): maximized at
  // the slowest speed and an alpha endpoint, so the corner scan is exact.
  for (const double alpha : {alpha_lo, alpha_hi}) {
    const TwoStateChain corner(
        TwoStateParams{alpha * speed_lo, (1.0 - alpha) * speed_lo});
    b.max_mixing = std::max(b.max_mixing, corner.mixing_time());
  }
  return b;
}

RateBounds two_speed_bounds(TwoStateParams base, double slow_fraction,
                            double slow_factor) {
  if (slow_fraction < 0.0 || slow_fraction > 1.0) {
    throw std::invalid_argument("two_speed_bounds: bad fraction");
  }
  if (slow_factor <= 0.0 || slow_factor > 1.0) {
    throw std::invalid_argument("two_speed_bounds: factor must be in (0,1]");
  }
  const TwoStateChain fast(base);
  RateBounds b;
  b.max_birth = base.birth_rate;  // the slow class only scales down
  b.max_death = base.death_rate;
  b.min_alpha = b.max_alpha = fast.stationary_on();  // scale-invariant
  b.max_mixing = fast.mixing_time();
  if (slow_fraction > 0.0) {
    const TwoStateChain slow(TwoStateParams{base.birth_rate * slow_factor,
                                            base.death_rate * slow_factor});
    b.max_mixing = std::max(b.max_mixing, slow.mixing_time());
  }
  return b;
}

}  // namespace megflood
