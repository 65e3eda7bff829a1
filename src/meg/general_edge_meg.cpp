#include "meg/general_edge_meg.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "meg/on_set.hpp"
#include "meg/pair_index.hpp"

namespace megflood {

GeneralEdgeMEG::GeneralEdgeMEG(std::size_t num_nodes, DenseChain chain,
                               std::vector<bool> chi, std::uint64_t seed,
                               MegStorage storage)
    : n_(num_nodes),
      chain_(std::move(chain)),
      chi_(std::move(chi)),
      rng_(seed) {
  if (num_nodes < 2) {
    throw std::invalid_argument("GeneralEdgeMEG: need at least 2 nodes");
  }
  if (chi_.size() != chain_.num_states()) {
    throw std::invalid_argument("GeneralEdgeMEG: chi arity != chain states");
  }
  if (chain_.num_states() > 256) {
    throw std::invalid_argument("GeneralEdgeMEG: > 256 states unsupported");
  }
  stationary_ = chain_.stationary();

  const std::size_t num_states = chain_.num_states();
  exit_prob_.resize(num_states, 0.0);
  exit_cum_.resize(num_states);
  exit_target_.resize(num_states);
  for (StateId s = 0; s < num_states; ++s) {
    const auto& row = chain_.row(s);
    double cum = 0.0;
    for (StateId t = 0; t < num_states; ++t) {
      if (t == s || row[t] <= 0.0) continue;
      cum += row[t];
      exit_cum_[s].push_back(cum);
      exit_target_[s].push_back(t);
    }
    exit_prob_[s] = std::min(cum, 1.0);
  }

  sparse_ = resolve_storage(n_, stationary_, chi_, storage) ==
            MegStorage::kSparse;
  majority_state_ = static_cast<StateId>(
      std::max_element(stationary_.begin(), stationary_.end()) -
      stationary_.begin());
  for (StateId s = 0; s < num_states; ++s) {
    if (s != majority_state_) {
      minority_exit_envelope_ = std::max(minority_exit_envelope_, exit_prob_[s]);
    }
  }
  select_rows_.resize(num_states);
  for (StateId s = 0; s < num_states; ++s) {
    SelectRow& row = select_rows_[s];
    row.thin = exit_prob_[s] < minority_exit_envelope_;
    row.ratio = row.thin ? exit_prob_[s] / minority_exit_envelope_ : 1.0;
    on_states_[s] = chi_[s];
  }
  if (!sparse_) {
    states_.resize(pair_count(n_));
    buckets_.resize(num_states);
  }

  snapshot_.reset(n_);
  initialize();
}

std::uint64_t GeneralEdgeMEG::dense_footprint_bytes(
    std::size_t num_nodes) noexcept {
  // One state byte (states_) plus one 8-byte packed bucket key per pair.
  return pair_count(num_nodes) * 9;
}

MegStorage GeneralEdgeMEG::resolve_storage(
    std::size_t num_nodes, const std::vector<double>& stationary,
    const std::vector<bool>& chi, MegStorage requested) {
  // Sparse needs (a) a dominant stationary state, so the batched
  // Binomial machinery covers the implicit population (this is the same
  // pi_max >= 1/2 rule the dense batched initializer uses), and (b)
  // chi(majority) == false, so the on-set is a subset of the minority map
  // and memory really is O(#minority + #on).
  const auto majority = static_cast<std::size_t>(
      std::max_element(stationary.begin(), stationary.end()) -
      stationary.begin());
  const bool qualifies = stationary[majority] >= 0.5 && !chi[majority];
  if (requested == MegStorage::kSparse && !qualifies) {
    throw std::invalid_argument(
        "GeneralEdgeMEG: sparse storage requires a dominant stationary "
        "state (pi_max >= 1/2) with chi(majority) == false; this chain "
        "has no quiescent majority — use dense storage");
  }
  const bool sparse =
      requested == MegStorage::kSparse ||
      (requested == MegStorage::kAuto && qualifies &&
       meg_auto_prefers_sparse(dense_footprint_bytes(num_nodes)));
  return sparse ? MegStorage::kSparse : MegStorage::kDense;
}

std::uint64_t GeneralEdgeMEG::minority_count() const {
  if (sparse_) return minority_.keys.size();
  return pair_count(n_) - buckets_[majority_state_].size();
}

double GeneralEdgeMEG::stationary_edge_probability() const {
  double alpha = 0.0;
  for (StateId s = 0; s < chi_.size(); ++s) {
    if (chi_[s]) alpha += stationary_[s];
  }
  return alpha;
}

StateId GeneralEdgeMEG::pair_state(NodeId i, NodeId j) const {
  if (i == j || i >= n_ || j >= n_) {
    throw std::out_of_range("pair_state: bad pair");
  }
  if (i > j) std::swap(i, j);
  if (sparse_) {
    const PairKeys& keys = minority_.keys;
    const std::uint64_t key = pack_pair(i, j);
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return majority_state_;
    return minority_.states[static_cast<std::size_t>(it - keys.begin())];
  }
  return states_[pair_index_of(n_, i, j)];
}

void GeneralEdgeMEG::initialize() {
  if (sparse_) {
    initialize_sparse();
    return;
  }
  for (auto& bucket : buckets_) bucket.clear();
  on_.keys.clear();
  const bool scattered = sample_initial_states();
  if (scattered && !chi_[majority_state_]) {
    // The scatter path knows exactly which (few) pairs are non-majority,
    // so the dominant bucket can be bulk-written as consecutive key
    // ranges instead of walking all O(n^2) pairs one push at a time.
    fill_buckets_from_scatter();
  } else {
    // Generic fill with exact-size reservations from a counting pass:
    // the majority bucket holds nearly every pair, and letting it grow
    // by doubling would copy tens of megabytes of keys at paper scale.
    std::vector<std::size_t> per_state(chain_.num_states(), 0);
    for (const std::uint8_t s : states_) ++per_state[s];
    std::size_t on_count = 0;
    for (StateId s = 0; s < chain_.num_states(); ++s) {
      buckets_[s].reserve(per_state[s]);
      if (chi_[s]) on_count += per_state[s];
    }
    on_.keys.reserve(on_count);
    // Ascending pair order, so every bucket and the on-set come out
    // sorted without a sort pass.
    std::size_t e = 0;
    for (NodeId i = 0; i + 1 < n_; ++i) {
      for (NodeId j = i + 1; j < n_; ++j, ++e) {
        const StateId s = states_[e];
        const std::uint64_t key = pack_pair(i, j);
        buckets_[s].push_back(key);
        if (chi_[s]) on_.keys.push_back(key);
      }
    }
  }
  on_.merge(n_, snapshot_);
}

void GeneralEdgeMEG::fill_buckets_from_scatter() {
  // Packed keys pack_pair(i, j) are consecutive integers along a row of
  // the pair triangle, and row-major key order equals linear pair-index
  // order — so between two (sorted) minority positions the majority
  // bucket receives a pure iota range.  Minority pairs go to their own
  // buckets (and, when chi, the on-set) in the same ascending sweep, so
  // every bucket ends up sorted exactly as the generic fill would leave
  // it.  Precondition: states_ scattered by sample_initial_states() and
  // chi_[majority_state_] == false (the on-set is then just the chi
  // minority).
  const std::uint64_t minority = init_positions_.size();
  auto& majority_bucket = buckets_[majority_state_];
  majority_bucket.resize(states_.size() - minority);
  std::uint64_t* out = majority_bucket.data();
  std::size_t mp = 0;
  for (NodeId i = 0; i + 1 < n_; ++i) {
    const std::uint64_t row_start = pair_row_start(n_, i);
    const std::uint64_t row_len = n_ - 1 - i;
    const std::uint64_t key0 = pack_pair(i, i + 1);
    std::uint64_t p = 0;
    while (mp < minority && init_positions_[mp] < row_start + row_len) {
      const std::uint64_t stop = init_positions_[mp] - row_start;
      for (; p < stop; ++p) *out++ = key0 + p;
      const StateId s = states_[row_start + stop];
      buckets_[s].push_back(key0 + stop);
      if (chi_[s]) on_.keys.push_back(key0 + stop);
      p = stop + 1;
      ++mp;
    }
    for (; p < row_len; ++p) *out++ = key0 + p;
  }
  assert(out == majority_bucket.data() + majority_bucket.size());
  assert(mp == minority);
}

std::vector<std::uint64_t> GeneralEdgeMEG::sample_class_counts(
    std::uint64_t pairs) {
  // Sequential binomial splits of the multinomial Mult(pairs, pi).
  const std::size_t num_states = chain_.num_states();
  std::vector<std::uint64_t> class_count(num_states, 0);
  std::uint64_t rest = pairs;
  double rest_prob = 1.0;
  for (StateId s = 0; s < num_states && rest > 0; ++s) {
    double p = s + 1 == num_states
                   ? 1.0
                   : (rest_prob > 0.0 ? stationary_[s] / rest_prob : 1.0);
    p = std::min(p, 1.0);
    class_count[s] = rng_.binomial(rest, p);
    rest -= class_count[s];
    rest_prob -= stationary_[s];
  }
  return class_count;
}

void GeneralEdgeMEG::build_shuffled_minority_values(
    const std::vector<std::uint64_t>& class_count, StateId majority,
    std::uint64_t minority, PairStates& values) {
  // The minority multiset, uniformly shuffled (Fisher-Yates).
  values.clear();
  values.reserve(minority);
  for (StateId s = 0; s < class_count.size(); ++s) {
    if (s == majority) continue;
    values.insert(values.end(), class_count[s], static_cast<std::uint8_t>(s));
  }
  for (std::uint64_t i = minority - 1; i > 0; --i) {
    std::swap(values[i], values[rng_.uniform_int(i + 1)]);
  }
}

bool GeneralEdgeMEG::sample_initial_states() {
  // Batched stationary draw: instead of one discrete draw per pair
  // (O(pairs * |S|)), sample the per-class *counts* — sequential binomial
  // splits of the multinomial Mult(pairs, pi) — and then place them:
  // fill everything with the majority class and scatter the k minority
  // assignments over a uniform random k-subset of pair slots in uniformly
  // shuffled order.  Conditional on the counts, that is exactly the iid
  // law's arrangement distribution, so the initial configuration is
  // distributionally identical to the historical per-pair initializer
  // (the RNG stream differs; tests/test_skip_sampler_equivalence.cpp
  // checks the equivalence against the retained reference).  In the
  // sparse regimes (quiescent majority state) the whole initialization
  // consumes O(minority pairs) RNG draws instead of O(pairs).
  const std::uint64_t pairs = states_.size();
  // The batched-vs-per-pair branch is decided from the *chain* alone,
  // before any RNG is consumed.  Branching on the sampled counts would
  // condition the resulting configuration law on the branch taken and
  // bias it (sparse-looking draws would survive while dense-looking ones
  // got resampled) — and would waste the O(pairs) split draws whenever
  // the fallback fired.  With a fixed rule both paths sample the exact
  // iid stationary law.
  const StateId majority = majority_state_;
  if (stationary_[majority] < 0.5) {
    // No dominant class in expectation: the subset-scatter below would
    // spend more on rejection than the plain per-pair walk, which is
    // near-optimal for dense state laws.
    sample_initial_states_per_pair();
    return false;
  }
  const std::vector<std::uint64_t> class_count = sample_class_counts(pairs);

  const std::uint64_t minority = pairs - class_count[majority];
  std::fill(states_.begin(), states_.end(),
            static_cast<std::uint8_t>(majority));
  if (minority == 0) {
    init_positions_.clear();
    return true;
  }

  build_shuffled_minority_values(class_count, majority, minority,
                                 init_values_);

  // A uniform minority-sized subset of pair slots, as rejection against
  // the drawn set gives it (expected < 2 draws per slot while minority <=
  // pairs / 2, which pi_majority >= 1/2 guarantees in expectation; rarer,
  // larger draws just reject a bit more), emitted in ascending slot
  // order.  sample_distinct_positions makes exactly the rejection loop's
  // draws however it drops repeats (the historical taken-bitmap for a
  // large subset, a sort of the raw draws for a sparse one), so the
  // stream, and hence the configuration, is unchanged and identical to
  // the sparse engine's.
  sample_distinct_positions(rng_, minority, pairs, init_positions_);
  for (std::uint64_t k = 0; k < minority; ++k) {
    states_[init_positions_[k]] = init_values_[k];
  }
  return true;
}

void GeneralEdgeMEG::initialize_sparse() {
  // The batched initializer with the majority left implicit: identical
  // RNG stream to the dense batched path (splits, shuffle, subset draw),
  // so a same-seed dense/sparse pair starts in the SAME configuration —
  // the t = 0 equivalence in tests/test_sparse_storage.cpp is exact.
  // The map is built in its own arrays: the shuffled values are its
  // states, and the subset's ascending positions become its keys in place
  // (ascending positions => ascending keys, so no sort pass).  Both get
  // room for one step's expected majority movers too, so the first step's
  // walk does not regrow them.
  const std::uint64_t pairs = pair_count(n_);
  const std::vector<std::uint64_t> class_count = sample_class_counts(pairs);
  const std::uint64_t minority = pairs - class_count[majority_state_];
  PairKeys& keys = minority_.keys;
  PairStates& states = minority_.states;
  keys.clear();
  states.clear();
  if (minority > 0) {
    const auto births = static_cast<std::uint64_t>(
        exit_prob_[majority_state_] * static_cast<double>(pairs - minority));
    reserve_headroom(keys, minority + births + 1);
    reserve_headroom(states, minority + births + 1);
    build_shuffled_minority_values(class_count, majority_state_, minority,
                                   states);
    sample_distinct_positions(rng_, minority, pairs, keys);
    indices_to_keys(n_, keys);
  }
  std::size_t edges = 0;
  for (const std::uint8_t s : states) edges += on_states_[s];
  snapshot_.borrow(keys, states, on_states_, edges);
}

void GeneralEdgeMEG::sample_initial_states_per_pair() {
  // The historical initializer: one stationary draw per pair, kept as the
  // dense-regime path and as the reference the batched sampler is tested
  // against.
  for (auto& state : states_) {
    state = static_cast<std::uint8_t>(
        DenseChain::sample_from(stationary_, rng_));
  }
}

StateId GeneralEdgeMEG::sample_exit_target(StateId from, Rng& rng) const {
  const auto& cum = exit_cum_[from];
  const double u = rng.uniform() * exit_prob_[from];
  for (std::size_t k = 0; k < cum.size(); ++k) {
    if (u < cum[k]) return exit_target_[from][k];
  }
  return exit_target_[from].back();  // floating point slack
}

void GeneralEdgeMEG::step() {
  if (sparse_) {
    step_sparse();
  } else {
    step_dense();
  }
  advance_clock();
}

void GeneralEdgeMEG::step_sparse() {
  // Draw phase (the only RNG consumer), all selections against the
  // pre-step map.
  //
  // Minority movers: geometric-skip the minority map at the largest
  // minority exit probability and thin each candidate by its class's
  // exit_prob / envelope — exact by superposition, and output-sensitive
  // because minority classes are the busy ones.  Each accepted mover
  // draws its destination from the conditional exit distribution, like
  // the dense bucket scan.  The mover's new state goes straight into its
  // map entry: positions ascend, so every entry is read before it is
  // written.  The draws run on a local copy of the stream, so the state
  // byte stores cannot alias the member generator.
  const std::uint64_t old_size = minority_.keys.size();
  const auto majority = static_cast<std::uint8_t>(majority_state_);
  const SelectRow* rows = select_rows_.data();
  std::uint8_t* map_states = minority_.states.data();
  Rng rng = rng_;
  geometric_select(
      rng, old_size, minority_exit_envelope_, [&](std::uint64_t pos) {
        const std::uint8_t from = map_states[pos];
        const SelectRow row = rows[from];
        if (row.thin && !rng.bernoulli(row.ratio)) return;
        const auto to =
            static_cast<std::uint8_t>(sample_exit_target(from, rng));
        map_states[pos] = to;
      });
  rng_ = rng;

  // Majority movers: an iid Bernoulli(exit_prob) selection over the
  // implicit complement population, drawn as complement ranks
  // (meg/pair_set.hpp), and then one destination per rank in ascending
  // rank order.
  draw_complement_ranks(rng_, n_, old_size, exit_prob_[majority_state_],
                        rank_scratch_);
  reserve_headroom(inserted_states_, rank_scratch_.size());
  inserted_states_.resize(rank_scratch_.size());
  for (std::uint8_t& to : inserted_states_) {
    to = static_cast<std::uint8_t>(sample_exit_target(majority_state_, rng_));
  }

  // Merge pass (no RNG).  The minority movers already hold their new
  // states, so the map is still sorted; the walk drops the ones back in
  // the majority and merges the majority movers in, writing the map in
  // place over the moved one it reads.
  PairSetWriter out(minority_, n_, rank_scratch_, majority, on_states_);
  // Plain pointers: the writer's byte stores could alias the vectors.
  const std::uint64_t* keys = out.keys();
  const std::uint8_t* states = out.states();
  const std::uint8_t* inserted = inserted_states_.data();
  walk_complement(
      n_, {keys, old_size}, rank_scratch_,
      [&](std::size_t pos) { out.emit_state(keys[pos], states[pos]); },
      [&](std::size_t r, std::uint64_t key) {
        out.emit_state(key, inserted[r]);
      });
  out.finish(snapshot_);
}

void GeneralEdgeMEG::step_dense() {
  // Phase 1 (consumes RNG): per state class, geometric-skip over the
  // bucket with the class exit probability; every selected pair draws its
  // destination from the conditional exit distribution.  All selections
  // are made against the pre-step buckets, so a pair entering a class
  // this step is never re-examined within the step.
  moves_.clear();
  for (StateId s = 0; s < buckets_.size(); ++s) {
    geometric_select(rng_, buckets_[s].size(), exit_prob_[s],
                     [&](std::uint64_t pos) {
                       moves_.push_back({pos, s, sample_exit_target(s, rng_)});
                     });
  }

  // Phase 2 (no RNG): apply the moves.  Within a class, positions were
  // recorded ascending; walking the flat move list backwards processes
  // them descending, so each swap-remove only disturbs positions that
  // have already been handled.  Appends land past every recorded
  // position, so cross-class arrivals are safe too.
  for (auto it = moves_.rbegin(); it != moves_.rend(); ++it) {
    auto& from_bucket = buckets_[it->from];
    const std::uint64_t key = from_bucket[it->pos];
    from_bucket[it->pos] = from_bucket.back();
    from_bucket.pop_back();
    buckets_[it->to].push_back(key);
    states_[pair_index_of(n_, pair_key_i(key), pair_key_j(key))] =
        static_cast<std::uint8_t>(it->to);
    if (chi_[it->from] != chi_[it->to]) {
      (chi_[it->from] ? on_.died : on_.born).push_back(key);
    }
  }

  // The reverse walk lists the flips in no particular key order.
  std::sort(on_.died.begin(), on_.died.end());
  std::sort(on_.born.begin(), on_.born.end());
  on_.merge(n_, snapshot_);
}

void GeneralEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

BurstyLink make_bursty_link(double wake_rate, double ready_rate,
                            double drop_rate) {
  // States: 0 = off, 1 = warming, 2 = on.
  DenseChain chain({{1.0 - wake_rate, wake_rate, 0.0},
                    {0.0, 1.0 - ready_rate, ready_rate},
                    {drop_rate, 0.0, 1.0 - drop_rate}});
  return {std::move(chain), {false, false, true}};
}

BurstyLink make_duty_cycle_link(std::size_t period, std::size_t on_states,
                                double advance) {
  if (period < 2 || on_states == 0 || on_states >= period) {
    throw std::invalid_argument("make_duty_cycle_link: need 0 < on < period");
  }
  if (advance <= 0.0 || advance > 1.0) {
    throw std::invalid_argument("make_duty_cycle_link: advance in (0,1]");
  }
  std::vector<std::vector<double>> rows(period,
                                        std::vector<double>(period, 0.0));
  for (std::size_t s = 0; s < period; ++s) {
    rows[s][s] = 1.0 - advance;
    rows[s][(s + 1) % period] = advance;
  }
  std::vector<bool> chi(period, false);
  for (std::size_t s = 0; s < on_states; ++s) chi[s] = true;
  return {DenseChain(std::move(rows)), std::move(chi)};
}

BurstyLink make_four_state_link(const FourStateLinkParams& p) {
  for (double rate : {p.wake, p.connect, p.calm_off, p.drop, p.stabilize,
                      p.destabilize}) {
    if (rate < 0.0 || rate > 1.0) {
      throw std::invalid_argument("make_four_state_link: rate outside [0,1]");
    }
  }
  if (p.connect + p.calm_off > 1.0 || p.drop + p.stabilize > 1.0) {
    throw std::invalid_argument(
        "make_four_state_link: volatile-state exit rates exceed 1");
  }
  // States: 0 off-sticky, 1 off-volatile, 2 on-volatile, 3 on-sticky.
  DenseChain chain({
      {1.0 - p.wake, p.wake, 0.0, 0.0},
      {p.calm_off, 1.0 - p.calm_off - p.connect, p.connect, 0.0},
      {0.0, p.drop, 1.0 - p.drop - p.stabilize, p.stabilize},
      {0.0, 0.0, p.destabilize, 1.0 - p.destabilize},
  });
  return {std::move(chain), {false, false, true, true}};
}

}  // namespace megflood
