#pragma once

// Node-Markovian evolving graphs (paper Section 4): every node runs an
// independent copy of a Markov chain M = (S, P); nodes i, j are connected
// at time t iff C(s_i^t, s_j^t) = 1 for a fixed symmetric map C (the
// "connection graph" of M).
//
// ExplicitNodeMEG keeps the chain as a dense matrix, which enables the
// exact computation of P_NM, P_NM2 and eta (Fact 2 / Theorem 3): these
// are pure functions of the stationary distribution pi and of C.
// Mobility models with huge implicit state spaces implement DynamicGraph
// directly (src/mobility) but are node-MEGs in exactly this sense.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "markov/chain.hpp"
#include "util/rng.hpp"

namespace megflood {

// Symmetric boolean connection map over chain states.
class ConnectionMap {
 public:
  // `rows` must be square and symmetric.
  explicit ConnectionMap(std::vector<std::vector<bool>> rows);

  std::size_t num_states() const noexcept { return rows_.size(); }
  bool connected(StateId a, StateId b) const { return rows_.at(a).at(b); }

  // Gamma(x) = set of states at one hop from x (paper Appendix D).
  std::vector<StateId> gamma(StateId x) const;

  // Row x of C as a flat byte array (one byte per state): lets the
  // snapshot rebuild hoist the row lookup out of its inner loop and test
  // membership without vector<bool> bit arithmetic.
  const std::uint8_t* flat_row(StateId x) const {
    return flat_.data() + static_cast<std::size_t>(x) * rows_.size();
  }

 private:
  std::vector<std::vector<bool>> rows_;
  std::vector<std::uint8_t> flat_;  // row-major copy of rows_
};

// Exact node-MEG invariants from pi and C (Fact 2):
//   P_NM  = P(two fixed stationary nodes are connected)
//         = sum_x pi(x) * q(x)            with q(x) = pi(Gamma(x))
//   P_NM2 = P(two fixed nodes both connect to a third fixed node)
//         = sum_x pi(x) * q(x)^2
//   eta   = P_NM2 / P_NM^2.
struct NodeMegInvariants {
  double p_nm = 0.0;
  double p_nm2 = 0.0;
  double eta = 0.0;
};
NodeMegInvariants node_meg_invariants(const std::vector<double>& stationary,
                                      const ConnectionMap& connection);

class ExplicitNodeMEG final : public DynamicGraph {
 public:
  // Initial node states are drawn i.i.d. from the chain's stationary
  // distribution (the paper's stationary regime).
  ExplicitNodeMEG(std::size_t num_nodes, DenseChain chain,
                  ConnectionMap connection, std::uint64_t seed);

  std::size_t num_nodes() const override { return num_nodes_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  const DenseChain& chain() const noexcept { return chain_; }
  const ConnectionMap& connection() const noexcept { return connection_; }
  const std::vector<double>& stationary() const noexcept { return stationary_; }

  // Exact invariants of this model (Fact 2).
  NodeMegInvariants invariants() const;

  StateId node_state(NodeId i) const { return states_.at(i); }

  // Place all nodes in a specific state (worst-case start for mixing
  // studies); rebuilds the snapshot.
  void set_all_states(StateId s);

 private:
  void initialize();
  void rebuild_snapshot();

  std::size_t num_nodes_;
  DenseChain chain_;
  ConnectionMap connection_;
  Rng rng_;
  std::vector<double> stationary_;
  std::vector<StateId> states_;
  Snapshot snapshot_;
};

// Connection-map factories used by tests and experiment E4.

// C(a, b) = 1 iff a == b ("same location" semantics, as in the random
// paths model).
ConnectionMap same_state_connection(std::size_t num_states);

// C(a, b) = 1 iff |a - b| <= radius on the cycle of `num_states` states
// (a 1-D geometric proximity map).
ConnectionMap cycle_proximity_connection(std::size_t num_states,
                                         std::size_t radius);

}  // namespace megflood
