#pragma once

// Retained reference implementation of the pre-CSR/pre-bitset engine,
// used by the same-seed equivalence suite (test_engine_equivalence.cpp).
// This is a faithful copy of the historical data path:
//  * RefSnapshot      — per-node vector<vector<NodeId>> adjacency.
//  * ref_flood*       — byte-array informed sets with the mark-2 commit
//                       protocol, scalar per-source all-sources loop.
//  * RefTwoStateEdgeMEG — unordered_set on-set re-sorted every step with
//                       the double/sqrt triangular inversion.
//  * RefGeneralEdgeMEG / RefHeterogeneousEdgeMEG — the historical
//                       one-RNG-draw-per-pair-per-step samplers that the
//                       geometric-skip engines replaced.  The skip engines
//                       consume the RNG in a different order, so the suite
//                       checks them distributionally (stationary
//                       frequencies, transition counts) instead of
//                       bit-for-bit — except at t = 0, where the
//                       initializers share the historical stream and must
//                       match exactly.
//  * ref_sample_distinct_positions — the historical subset sampler
//                       (taken-bitmap or std::unordered_set rejection,
//                       then std::sort) that the bitmap / ordered-probe
//                       table sampler in meg/on_set.hpp replaced; same
//                       stream.
// None of this is reachable from the library; it exists so the production
// engine can be proven equivalent.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "markov/chain.hpp"
#include "markov/two_state.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "util/rng.hpp"
#include "step_hash.hpp"

namespace megflood::reference {

struct RefSnapshot {
  std::vector<std::vector<NodeId>> adjacency;

  explicit RefSnapshot(std::size_t n = 0) : adjacency(n) {}

  void add_edge(NodeId u, NodeId v) {
    adjacency.at(u).push_back(v);
    adjacency.at(v).push_back(u);
  }

  // Lossless import of a production snapshot via its decoded keys (does
  // not exercise the CSR view under test).
  static RefSnapshot from(const Snapshot& snap) {
    RefSnapshot ref(snap.num_nodes());
    for (const auto& [u, v] : decoded_edges(snap)) ref.add_edge(u, v);
    return ref;
  }
};

// Historical flood_round: scan informed bytes, mark newly informed as 2,
// commit to 1 after the scan.
inline std::size_t ref_flood_round(const RefSnapshot& snapshot,
                                   std::vector<char>& informed) {
  std::size_t newly = 0;
  std::vector<NodeId> frontier;
  for (NodeId u = 0; u < informed.size(); ++u) {
    if (informed[u] != 1) continue;
    for (NodeId v : snapshot.adjacency[u]) {
      if (!informed[v]) {
        informed[v] = 2;
        frontier.push_back(v);
        ++newly;
      }
    }
  }
  for (NodeId v : frontier) informed[v] = 1;
  return newly;
}

// Historical flood() over a pre-recorded snapshot sequence; trace[t] is
// E_t, held at the last snapshot if the budget outruns the trace.
inline std::vector<std::size_t> ref_flood_counts(
    const std::vector<RefSnapshot>& trace, NodeId source, std::size_t n,
    std::uint64_t max_rounds) {
  std::vector<std::size_t> counts;
  std::vector<char> informed(n, 0);
  informed[source] = 1;
  std::size_t informed_count = 1;
  counts.push_back(informed_count);
  if (informed_count == n) return counts;
  for (std::uint64_t t = 0; t < max_rounds; ++t) {
    const RefSnapshot& snap =
        trace[std::min<std::size_t>(t, trace.size() - 1)];
    informed_count += ref_flood_round(snap, informed);
    counts.push_back(informed_count);
    if (informed_count == n) break;
  }
  return counts;
}

// Historical all-sources loop: n independent byte arrays advanced in
// lockstep; returns per-source |I_t| trajectories.
inline std::vector<std::vector<std::size_t>> ref_all_sources_counts(
    const std::vector<RefSnapshot>& trace, std::size_t n,
    std::uint64_t max_rounds) {
  std::vector<std::vector<std::size_t>> counts(n);
  std::vector<std::vector<char>> informed(n, std::vector<char>(n, 0));
  std::vector<std::size_t> tally(n, 1);
  std::vector<char> done(n, 0);
  std::size_t remaining = n;
  for (NodeId s = 0; s < n; ++s) {
    informed[s][s] = 1;
    counts[s].push_back(1);
    if (n == 1) {
      done[s] = 1;
      --remaining;
    }
  }
  for (std::uint64_t t = 0; t < max_rounds && remaining > 0; ++t) {
    const RefSnapshot& snap =
        trace[std::min<std::size_t>(t, trace.size() - 1)];
    for (NodeId s = 0; s < n; ++s) {
      if (done[s]) continue;
      tally[s] += ref_flood_round(snap, informed[s]);
      counts[s].push_back(tally[s]);
      if (tally[s] == n) {
        done[s] = 1;
        --remaining;
      }
    }
  }
  return counts;
}

// Faithful copy of the historical TwoStateEdgeMEG step/initialize logic
// (stationary init only, which is what the equivalence suite exercises).
class RefTwoStateEdgeMEG {
 public:
  RefTwoStateEdgeMEG(std::size_t num_nodes, TwoStateParams params,
                     std::uint64_t seed)
      : n_(num_nodes),
        chain_(params),
        rng_(seed),
        total_pairs_(static_cast<std::uint64_t>(num_nodes) *
                     (num_nodes - 1) / 2) {
    initialize();
  }

  void reset(std::uint64_t seed) {
    rng_.reseed(seed);
    initialize();
  }

  void step() {
    const double p = chain_.birth_rate();
    const double q = chain_.death_rate();
    std::unordered_set<std::uint64_t> killed;
    if (q > 0.0) {
      std::vector<std::uint64_t> ordered(on_.begin(), on_.end());
      std::sort(ordered.begin(), ordered.end());
      for (std::uint64_t e : ordered) {
        if (rng_.bernoulli(q)) killed.insert(e);
      }
      for (std::uint64_t e : killed) on_.erase(e);
    }
    if (p > 0.0) {
      // Same draws as the historical loop, with the pre-add bound check
      // geometric_select uses (a saturated draw must end the scan, not
      // wrap e).
      std::uint64_t e = rng_.geometric(p);
      while (e < total_pairs_) {
        if (!killed.contains(e)) on_.insert(e);
        const std::uint64_t skip = rng_.geometric(p);
        if (skip >= total_pairs_ - e - 1) break;
        e += 1 + skip;
      }
    }
  }

  // Canonical sorted (u < v) edge list of the current state.
  std::vector<std::pair<NodeId, NodeId>> edges() const {
    std::vector<std::uint64_t> ordered(on_.begin(), on_.end());
    std::sort(ordered.begin(), ordered.end());
    std::vector<std::pair<NodeId, NodeId>> result;
    result.reserve(ordered.size());
    for (std::uint64_t e : ordered) result.push_back(pair_of(e));
    return result;
  }

  RefSnapshot snapshot() const {
    RefSnapshot snap(n_);
    for (const auto& [u, v] : edges()) snap.add_edge(u, v);
    return snap;
  }

 private:
  void initialize() {
    on_.clear();
    const double pi = chain_.stationary_on();
    if (pi > 0.0) {
      std::uint64_t e = rng_.geometric(pi);
      while (e < total_pairs_) {
        on_.insert(e);
        const std::uint64_t skip = rng_.geometric(pi);
        if (skip >= total_pairs_ - e - 1) break;
        e += 1 + skip;
      }
    }
  }

  // The historical double/sqrt triangular inversion.
  std::pair<NodeId, NodeId> pair_of(std::uint64_t index) const {
    assert(index < total_pairs_);
    const double nd = static_cast<double>(n_);
    const double idx = static_cast<double>(index);
    double guess = std::floor(
        ((2.0 * nd - 1.0) - std::sqrt((2.0 * nd - 1.0) * (2.0 * nd - 1.0) -
                                      8.0 * idx)) /
        2.0);
    auto i = static_cast<std::uint64_t>(std::max(0.0, guess));
    auto row_start = [&](std::uint64_t r) { return r * (2 * n_ - r - 1) / 2; };
    while (i + 1 < n_ && row_start(i + 1) <= index) ++i;
    while (i > 0 && row_start(i) > index) --i;
    const std::uint64_t j = i + 1 + (index - row_start(i));
    return {static_cast<NodeId>(i), static_cast<NodeId>(j)};
  }

  std::size_t n_;
  TwoStateChain chain_;
  Rng rng_;
  std::uint64_t total_pairs_;
  std::unordered_set<std::uint64_t> on_;
};

// Faithful copy of the historical GeneralEdgeMEG sampler: one
// chain.sample_next draw per pair per step, full O(n^2) state walk.
class RefGeneralEdgeMEG {
 public:
  RefGeneralEdgeMEG(std::size_t num_nodes, DenseChain chain,
                    std::vector<bool> chi, std::uint64_t seed)
      : n_(num_nodes),
        chain_(std::move(chain)),
        chi_(std::move(chi)),
        rng_(seed) {
    stationary_ = chain_.stationary();
    states_.resize(n_ * (n_ - 1) / 2);
    initialize();
  }

  void step() {
    for (auto& s : states_) {
      s = static_cast<std::uint8_t>(chain_.sample_next(s, rng_));
    }
  }

  void reset(std::uint64_t seed) {
    rng_.reseed(seed);
    initialize();
  }

  StateId state(std::size_t pair) const { return states_.at(pair); }
  std::size_t num_pairs() const { return states_.size(); }

  // Canonical sorted (u < v) edge list of the current state.
  std::vector<std::pair<NodeId, NodeId>> edges() const {
    std::vector<std::pair<NodeId, NodeId>> result;
    std::size_t e = 0;
    for (NodeId i = 0; i + 1 < n_; ++i) {
      for (NodeId j = i + 1; j < n_; ++j, ++e) {
        if (chi_[states_[e]]) result.emplace_back(i, j);
      }
    }
    return result;
  }

 private:
  void initialize() {
    for (auto& s : states_) {
      s = static_cast<std::uint8_t>(DenseChain::sample_from(stationary_, rng_));
    }
  }

  std::size_t n_;
  DenseChain chain_;
  std::vector<bool> chi_;
  Rng rng_;
  std::vector<double> stationary_;
  std::vector<std::uint8_t> states_;
};

// Faithful copy of the historical HeterogeneousEdgeMEG sampler: one
// Bernoulli draw per pair per step.  Shares the production rate-stream
// derivation (seed ^ constant), so the same (sampler, seed) builds the
// identical rate assignment as the production model.
class RefHeterogeneousEdgeMEG {
 public:
  RefHeterogeneousEdgeMEG(std::size_t num_nodes, const EdgeRateSampler& sampler,
                          std::uint64_t seed)
      : n_(num_nodes), rng_(seed) {
    const std::size_t pairs = n_ * (n_ - 1) / 2;
    rates_.reserve(pairs);
    Rng rate_rng(seed ^ 0x5bf03635d1f4bb21ULL);
    for (std::size_t e = 0; e < pairs; ++e) rates_.push_back(sampler(rate_rng));
    on_.resize(pairs, 0);
    initialize();
  }

  void step() {
    for (std::size_t e = 0; e < on_.size(); ++e) {
      const auto& r = rates_[e];
      if (on_[e]) {
        if (rng_.bernoulli(r.death_rate)) on_[e] = 0;
      } else {
        if (rng_.bernoulli(r.birth_rate)) on_[e] = 1;
      }
    }
  }

  void reset(std::uint64_t seed) {
    rng_.reseed(seed);
    initialize();
  }

  bool on(std::size_t pair) const { return on_.at(pair) != 0; }
  std::size_t num_pairs() const { return on_.size(); }

  std::vector<std::pair<NodeId, NodeId>> edges() const {
    std::vector<std::pair<NodeId, NodeId>> result;
    std::size_t e = 0;
    for (NodeId i = 0; i + 1 < n_; ++i) {
      for (NodeId j = i + 1; j < n_; ++j, ++e) {
        if (on_[e]) result.emplace_back(i, j);
      }
    }
    return result;
  }

 private:
  void initialize() {
    for (std::size_t e = 0; e < on_.size(); ++e) {
      const auto& r = rates_[e];
      on_[e] =
          rng_.bernoulli(r.birth_rate / (r.birth_rate + r.death_rate)) ? 1 : 0;
    }
  }

  std::size_t n_;
  Rng rng_;
  std::vector<TwoStateParams> rates_;
  std::vector<char> on_;
};

// Faithful copy of the historical sample_distinct_positions: a uniform
// k-subset of [0, bound) by rejection against a bound-sized bitmap
// (k >= bound / 32) or a std::unordered_set, sorted with std::sort.
inline void ref_sample_distinct_positions(Rng& rng, std::uint64_t k,
                                          std::uint64_t bound,
                                          std::vector<std::uint64_t>& out) {
  assert(k <= bound);
  out.clear();
  if (k == 0) return;
  out.reserve(k);
  if (k >= bound / 32) {
    std::vector<std::uint8_t> taken(bound, 0);
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (taken[pos]) pos = rng.uniform_int(bound);
      taken[pos] = 1;
      out.push_back(pos);
    }
  } else {
    std::unordered_set<std::uint64_t> taken;
    taken.reserve(static_cast<std::size_t>(2 * k));
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (!taken.insert(pos).second) pos = rng.uniform_int(bound);
      out.push_back(pos);
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace megflood::reference
