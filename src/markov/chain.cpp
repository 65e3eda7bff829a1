#include "markov/chain.hpp"

#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "graph/graph.hpp"

namespace megflood {

namespace {
constexpr double kRowSumTolerance = 1e-9;
}

DenseChain::DenseChain(std::vector<std::vector<double>> rows)
    : rows_(std::move(rows)) {
  const std::size_t n = rows_.size();
  for (const auto& row : rows_) {
    if (row.size() != n) {
      throw std::invalid_argument("DenseChain: matrix is not square");
    }
    double sum = 0.0;
    for (double p : row) {
      if (p < 0.0) throw std::invalid_argument("DenseChain: negative entry");
      sum += p;
    }
    if (std::abs(sum - 1.0) > kRowSumTolerance) {
      throw std::invalid_argument("DenseChain: row does not sum to 1");
    }
  }
}

std::vector<double> DenseChain::evolve(const std::vector<double>& mu) const {
  assert(mu.size() == rows_.size());
  std::vector<double> out(rows_.size(), 0.0);
  for (StateId i = 0; i < rows_.size(); ++i) {
    const double mass = mu[i];
    if (mass == 0.0) continue;
    const auto& row = rows_[i];
    for (StateId j = 0; j < row.size(); ++j) {
      out[j] += mass * row[j];
    }
  }
  return out;
}

std::vector<double> DenseChain::stationary(double tol,
                                           std::size_t max_iters) const {
  const std::size_t n = rows_.size();
  if (n == 0) return {};
  std::vector<double> mu(n, 1.0 / static_cast<double>(n));
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // Damped iteration mu <- (mu + mu P) / 2: the lazy chain has the same
    // stationary vector for irreducible P but converges even when P is
    // periodic (e.g. non-lazy walks on bipartite graphs).
    const std::vector<double> evolved = evolve(mu);
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double next = 0.5 * (mu[i] + evolved[i]);
      residual += std::abs(next - mu[i]);
      mu[i] = next;
    }
    if (residual < tol) return mu;
  }
  throw std::runtime_error("DenseChain::stationary: no convergence");
}

StateId DenseChain::sample_next(StateId from, Rng& rng) const {
  const auto& row = rows_.at(from);
  double u = rng.uniform();
  for (StateId j = 0; j < row.size(); ++j) {
    u -= row[j];
    if (u < 0.0) return j;
  }
  // Floating point slack: last state with positive probability.
  for (StateId j = row.size(); j-- > 0;) {
    if (row[j] > 0.0) return j;
  }
  return from;
}

StateId DenseChain::sample_from(const std::vector<double>& dist, Rng& rng) {
  double u = rng.uniform();
  for (StateId j = 0; j < dist.size(); ++j) {
    u -= dist[j];
    if (u < 0.0) return j;
  }
  for (StateId j = dist.size(); j-- > 0;) {
    if (dist[j] > 0.0) return j;
  }
  return 0;
}

bool DenseChain::is_irreducible() const {
  const std::size_t n = rows_.size();
  if (n == 0) return true;
  // Strong connectivity check on the positive-entry digraph.  For the
  // symmetric-support chains we use, forward reachability from state 0 in
  // both the graph and its transpose suffices.
  auto reachable = [&](bool transpose) {
    std::vector<char> seen(n, 0);
    std::queue<StateId> q;
    seen[0] = 1;
    q.push(0);
    std::size_t count = 1;
    while (!q.empty()) {
      const StateId u = q.front();
      q.pop();
      for (StateId v = 0; v < n; ++v) {
        const double p = transpose ? rows_[v][u] : rows_[u][v];
        if (p > 0.0 && !seen[v]) {
          seen[v] = 1;
          ++count;
          q.push(v);
        }
      }
    }
    return count == n;
  };
  return reachable(false) && reachable(true);
}

DenseChain DenseChain::lazy() const {
  std::vector<std::vector<double>> rows = rows_;
  for (StateId i = 0; i < rows.size(); ++i) {
    for (StateId j = 0; j < rows.size(); ++j) {
      rows[i][j] *= 0.5;
    }
    rows[i][i] += 0.5;
  }
  return DenseChain(std::move(rows));
}

DenseChain lazy_random_walk_chain(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<double>> rows(n, std::vector<double>(n, 0.0));
  for (VertexId v = 0; v < n; ++v) {
    const auto& nbrs = g.neighbors(v);
    if (nbrs.empty()) {
      rows[v][v] = 1.0;
      continue;
    }
    const double p = 1.0 / static_cast<double>(nbrs.size());
    for (VertexId u : nbrs) rows[v][u] = p;
  }
  return DenseChain(std::move(rows)).lazy();
}

}  // namespace megflood
