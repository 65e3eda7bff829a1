#pragma once

// Finite Markov chains with explicit (dense) transition matrices.  These
// are the hidden chains M = (S, P) of the paper's node-MEGs and edge-MEGs
// when the state space is small enough to enumerate; they support exact
// stationary distributions and exact worst-case mixing times, which the
// experiment harnesses feed into the paper's bound formulas.

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace megflood {

using StateId = std::size_t;

// Row-stochastic dense transition matrix over states [0, size).
class DenseChain {
 public:
  // rows[i][j] = P(i -> j).  Throws if any row fails to sum to ~1 or has a
  // negative entry.
  explicit DenseChain(std::vector<std::vector<double>> rows);

  std::size_t num_states() const noexcept { return rows_.size(); }

  double transition(StateId from, StateId to) const {
    return rows_.at(from).at(to);
  }

  const std::vector<double>& row(StateId from) const { return rows_.at(from); }

  // One step of distribution evolution: returns mu * P.
  std::vector<double> evolve(const std::vector<double>& mu) const;

  // Stationary distribution via power iteration from the uniform start.
  // Converges for ergodic chains; throws if the residual has not dropped
  // below `tol` after `max_iters` (e.g. periodic chains).
  std::vector<double> stationary(double tol = 1e-12,
                                 std::size_t max_iters = 1'000'000) const;

  // Sample the next state from `from`.
  StateId sample_next(StateId from, Rng& rng) const;

  // Sample a state from an explicit distribution (e.g. the stationary one).
  static StateId sample_from(const std::vector<double>& dist, Rng& rng);

  // Whether every state can reach every other (strong connectivity of the
  // positive-transition digraph).
  bool is_irreducible() const;

  // Chain with transition matrix (P + I) / 2 — the standard lazy variant,
  // which is aperiodic whenever the original is irreducible.
  DenseChain lazy() const;

 private:
  std::vector<std::vector<double>> rows_;
};

// Lazy random walk on a graph: stay put with prob 1/2, else move to a
// uniform neighbor.  Isolated vertices self-loop with probability 1.
class Graph;  // fwd from graph/graph.hpp; definition required at call site
DenseChain lazy_random_walk_chain(const Graph& g);

}  // namespace megflood
