#pragma once

// The *generalized* edge-MEG of Appendix A: every potential edge evolves
// by an arbitrary hidden Markov chain M = (S, P), and an arbitrary map
// chi : S -> {0, 1} decides whether the edge exists in the snapshot.
// Edges are independent, so the paper's β-independence holds with β = 1
// and Theorem 1 applies with α = P_pi(chi = 1).
//
// Sampling engine: pairs are partitioned into one bucket per hidden
// state, and each step touches only the pairs that actually transition —
// per state class s, geometric skipping over the bucket with the class's
// exit probability 1 - P(s, s) selects the movers, whose new states are
// then drawn from the conditional exit distribution.  The dense on-set is
// a sorted pair set (meg/pair_set.hpp) maintained incrementally by its
// merge (like TwoStateEdgeMEG's), so a step costs O(|S| + transitions +
// |E_t|) instead of the historical O(n^2) per-pair resampling.
// Initialization is batched the same way: per-class counts are drawn as
// sequential binomial splits of the multinomial Mult(pairs, pi) and
// scattered uniformly, so the stationary start costs O(minority pairs)
// RNG draws when one class dominates (the historical per-pair walk is
// retained as the dense-law fallback and as the test reference).
//
// Storage modes (meg/storage.hpp).  The *dense* engine keeps one state
// byte plus one bucket key per pair — O(n^2) bytes, the reference
// implementation.  The *sparse* engine stores only the minority-state
// map: a sorted pair set with a state byte per entry, of the pairs whose
// hidden state differs from the stationary mode; the majority population
// is implicit.  Per step, minority movers are found by geometric-skipping
// the map at the largest minority exit probability (envelope thinning,
// exact by superposition) and majority movers by a batched Binomial draw
// over the implicit complement population plus a uniform distinct
// placement (draw_complement_ranks in meg/pair_set.hpp) — the same iid
// per-pair transition law as dense, so the two modes are distributionally
// equivalent (and bit-identical at t = 0, where they share the batched
// initializer's stream).  The minority select works in place: a mover's
// new state is written into its own map entry as soon as it is drawn
// (candidate positions ascend, so no entry is read after it is written),
// so it keeps no move list.  A sparse step draws all of that first, then
// makes one walk of the map (walk_complement) that merges the majority
// movers in at their complement ranks, and its PairSetWriter drops pairs
// back in the majority and writes the next map in ascending key order,
// in place: the map has one key array and one state array, moved up by
// the movers' count before the walk (meg/pair_set.hpp).  The on-set is
// never stored apart from the map, since chi(majority) is false: the
// snapshot borrows the map's keys and states with the chi mask
// (on_states_).  The initializer builds the map in those same arrays:
// the subset draw writes its positions into the key array, which turns
// them into keys in place, the shuffled values are the state array, and
// both have room for the first step's expected movers.
// Memory is O(#minority + #on), which in the paper's sparse stationary
// regimes (alpha ~ c/n, quiescent off state) is O(n) — the engine steps
// at n >= 32768 where dense cannot allocate.
// Sparse requires a dominant stationary state (pi_max >= 1/2) that chi
// maps to "off"; explicit kSparse on a non-qualifying chain is a hard
// error, kAuto falls back to dense.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "markov/chain.hpp"
#include "meg/pair_set.hpp"
#include "meg/storage.hpp"
#include "util/rng.hpp"

namespace megflood {

class GeneralEdgeMEG final : public DynamicGraph {
 public:
  // `chi[s]` is true iff an edge in state s exists.  Initial states are
  // drawn from the chain's stationary distribution.
  GeneralEdgeMEG(std::size_t num_nodes, DenseChain chain,
                 std::vector<bool> chi, std::uint64_t seed,
                 MegStorage storage = MegStorage::kAuto);

  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  const DenseChain& chain() const noexcept { return chain_; }

  // The resolved storage mode (never kAuto).
  MegStorage storage() const noexcept {
    return sparse_ ? MegStorage::kSparse : MegStorage::kDense;
  }

  // Dense-mode footprint this instance would need: one state byte plus
  // one 8-byte bucket key per pair.  What kAuto weighs against the
  // threshold in meg/storage.hpp.
  static std::uint64_t dense_footprint_bytes(std::size_t num_nodes) noexcept;

  // The mode `requested` resolves to (never kAuto) at `num_nodes` for a
  // chain with this `stationary` distribution and edge states `chi`.
  // Sparse needs a quiescent majority: a stationary state with pi >= 1/2
  // and chi false.  kAuto goes sparse when the chain has one and the
  // dense footprint passes the threshold.  Throws std::invalid_argument
  // for kSparse on a chain without one.
  static MegStorage resolve_storage(std::size_t num_nodes,
                                    const std::vector<double>& stationary,
                                    const std::vector<bool>& chi,
                                    MegStorage requested);

  // Sparse mode: number of pairs currently off the majority state (the
  // minority-map size).  Dense mode reports the same quantity (counted
  // from the buckets) so tests can compare the representations.
  std::uint64_t minority_count() const;

  // Sparse mode: the minority map, sorted packed keys (meg/pair_index.hpp)
  // with one state per entry; both empty in dense mode.
  const PairKeys& minority_keys() const noexcept { return minority_.keys; }
  const PairStates& minority_states() const noexcept {
    return minority_.states;
  }

  // The key array the snapshot borrows: the dense on-set, or in sparse
  // mode the minority map (whose states pick the edges).
  const PairKeys& set_keys() const noexcept {
    return sparse_ ? minority_.keys : on_.keys;
  }

  // Stationary probability that an edge exists: alpha = sum_{s: chi(s)} pi_s.
  double stationary_edge_probability() const;

  // Current hidden state of pair {i, j} (i != j).  The equivalence suite
  // uses this to cross-check the incrementally maintained snapshot
  // against a brute-force recomputation from the per-pair states.  O(1)
  // dense, O(log #minority) sparse.
  StateId pair_state(NodeId i, NodeId j) const;

 private:
  void initialize();
  void initialize_sparse();
  // Batched multinomial initializer (default); returns true when it took
  // the majority-fill + scatter path (init_positions_ /
  // states_ then describe the configuration), false when it fell back to
  // the per-pair walk for a dense state law.
  bool sample_initial_states();
  void sample_initial_states_per_pair();  // historical reference / fallback
  void fill_buckets_from_scatter();
  // Shared pieces of the batched stationary draw (identical RNG stream in
  // both storage modes): sequential binomial splits of Mult(pairs, pi),
  // and the uniformly shuffled minority value multiset, into `values`.
  std::vector<std::uint64_t> sample_class_counts(std::uint64_t pairs);
  void build_shuffled_minority_values(
      const std::vector<std::uint64_t>& class_count, StateId majority,
      std::uint64_t minority, PairStates& values);
  void step_dense();
  void step_sparse();
  StateId sample_exit_target(StateId from, Rng& rng) const;

  std::size_t n_;
  DenseChain chain_;
  std::vector<bool> chi_;
  Rng rng_;
  std::vector<double> stationary_;
  std::vector<std::uint8_t> states_;  // dense: one per pair, row-major triangle

  // Per-state exit tables: exit_prob_[s] = sum of the positive
  // off-diagonal entries of row s (the probability of leaving s this
  // step); exit_cum_[s][k] is the running sum over those entries and
  // exit_target_[s][k] the corresponding destination state.
  std::vector<double> exit_prob_;
  std::vector<std::vector<double>> exit_cum_;
  std::vector<std::vector<StateId>> exit_target_;

  // Dense mode: buckets_[s] holds the packed (i << 32 | j) keys of the
  // pairs currently in state s.  Element order mutates via swap-removes
  // but is a pure function of the seed, so runs stay reproducible.
  std::vector<std::vector<std::uint64_t>> buckets_;

  // Dense mode: the pairs whose state maps to "edge exists".  Sparse mode
  // needs none: chi(majority) is false, so the on-set is exactly the chi
  // entries of the minority map.
  PairSet on_;

  // Sparse mode: the minority-state map — the pairs NOT in the majority
  // state, with their states.  Every other pair is implicitly in
  // majority_state_.
  bool sparse_ = false;
  StateId majority_state_ = 0;
  double minority_exit_envelope_ = 0.0;  // max exit prob over minority states
  PairSet minority_;

  // Sparse mode: what the minority select needs of a state, in one row.
  struct SelectRow {
    double ratio;          // exit_prob / envelope, the thinning test
    bool thin;             // exit_prob < envelope: draw the thinning test
  };
  std::vector<SelectRow> select_rows_;
  // chi as the snapshot's mask over the map's states.
  StateMask on_states_{};

  // Step scratch (capacity reused across steps).  Dense mode only: the
  // sparse select writes its moves into the map in place.
  struct Move {
    std::uint64_t pos;
    StateId from;
    StateId to;
  };
  std::vector<Move> moves_;
  // Sparse-step scratch: the majority movers' complement ranks and
  // destination states.
  std::vector<std::uint64_t> rank_scratch_;
  std::vector<std::uint8_t> inserted_states_;

  // Dense-mode initialization scratch (batched stationary sampling): the
  // shuffled minority values and their ascending positions.  The sparse
  // initializer writes both straight into the minority map.
  PairStates init_values_;
  std::vector<std::uint64_t> init_positions_;

  Snapshot snapshot_;
};

// Ready-made hidden chains for experiments and tests.

// Three-state "bursty link": off <-> warming -> on -> off.  Models links
// with a setup delay; exists only in state 2 (on).
struct BurstyLink {
  DenseChain chain;
  std::vector<bool> chi;
};
BurstyLink make_bursty_link(double wake_rate, double ready_rate, double drop_rate);

// Cyclic k-state chain that advances with probability `advance` per step
// and is "on" in exactly `on_states` of the k states; a duty-cycled link.
BurstyLink make_duty_cycle_link(std::size_t period, std::size_t on_states,
                                double advance);

// Four-state link chain in the spirit of the refined edge model of
// Becchetti et al. [5] (the paper's reference for "a more refined model
// with four states"): the off and on macro-states each split into a
// sticky and a volatile sub-state, which produces bursty contact patterns
// (heavy-tailed-ish inter-contact times) that the plain two-state chain
// cannot express.
//   states: 0 = off-sticky, 1 = off-volatile, 2 = on-volatile,
//           3 = on-sticky;  chi = {0, 0, 1, 1}.
struct FourStateLinkParams {
  double wake = 0.01;        // off-sticky -> off-volatile
  double connect = 0.4;      // off-volatile -> on-volatile
  double calm_off = 0.05;    // off-volatile -> off-sticky
  double drop = 0.4;         // on-volatile -> off-volatile
  double stabilize = 0.05;   // on-volatile -> on-sticky
  double destabilize = 0.02; // on-sticky -> on-volatile
};
BurstyLink make_four_state_link(const FourStateLinkParams& params);

}  // namespace megflood
