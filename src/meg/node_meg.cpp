#include "meg/node_meg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace megflood {

ConnectionMap::ConnectionMap(std::vector<std::vector<bool>> rows)
    : rows_(std::move(rows)) {
  for (const auto& row : rows_) {
    if (row.size() != rows_.size()) {
      throw std::invalid_argument("ConnectionMap: matrix is not square");
    }
  }
  for (std::size_t a = 0; a < rows_.size(); ++a) {
    for (std::size_t b = a + 1; b < rows_.size(); ++b) {
      if (rows_[a][b] != rows_[b][a]) {
        throw std::invalid_argument("ConnectionMap: matrix is not symmetric");
      }
    }
  }
  flat_.resize(rows_.size() * rows_.size());
  for (std::size_t a = 0; a < rows_.size(); ++a) {
    for (std::size_t b = 0; b < rows_.size(); ++b) {
      flat_[a * rows_.size() + b] = rows_[a][b] ? 1 : 0;
    }
  }
}

std::vector<StateId> ConnectionMap::gamma(StateId x) const {
  std::vector<StateId> result;
  for (StateId y = 0; y < num_states(); ++y) {
    if (rows_.at(x)[y]) result.push_back(y);
  }
  return result;
}

NodeMegInvariants node_meg_invariants(const std::vector<double>& stationary,
                                      const ConnectionMap& connection) {
  if (stationary.size() != connection.num_states()) {
    throw std::invalid_argument("node_meg_invariants: arity mismatch");
  }
  NodeMegInvariants inv;
  for (StateId x = 0; x < stationary.size(); ++x) {
    double q = 0.0;  // q(x) = pi(Gamma(x))
    for (StateId y = 0; y < stationary.size(); ++y) {
      if (connection.connected(x, y)) q += stationary[y];
    }
    inv.p_nm += stationary[x] * q;
    inv.p_nm2 += stationary[x] * q * q;
  }
  inv.eta = inv.p_nm > 0.0 ? inv.p_nm2 / (inv.p_nm * inv.p_nm) : 0.0;
  return inv;
}

ExplicitNodeMEG::ExplicitNodeMEG(std::size_t num_nodes, DenseChain chain,
                                 ConnectionMap connection, std::uint64_t seed)
    : num_nodes_(num_nodes),
      chain_(std::move(chain)),
      connection_(std::move(connection)),
      rng_(seed) {
  if (num_nodes < 2) {
    throw std::invalid_argument("ExplicitNodeMEG: need at least 2 nodes");
  }
  if (chain_.num_states() != connection_.num_states()) {
    throw std::invalid_argument(
        "ExplicitNodeMEG: chain and connection state counts differ");
  }
  stationary_ = chain_.stationary();
  states_.resize(num_nodes_);
  snapshot_.reset(num_nodes_);
  initialize();
}

NodeMegInvariants ExplicitNodeMEG::invariants() const {
  return node_meg_invariants(stationary_, connection_);
}

void ExplicitNodeMEG::initialize() {
  for (auto& s : states_) s = DenseChain::sample_from(stationary_, rng_);
  rebuild_snapshot();
}

void ExplicitNodeMEG::rebuild_snapshot() {
  snapshot_.clear();
  for (NodeId i = 0; i + 1 < num_nodes_; ++i) {
    const std::uint8_t* row = connection_.flat_row(states_[i]);
    for (NodeId j = i + 1; j < num_nodes_; ++j) {
      if (row[states_[j]]) snapshot_.add_edge(i, j);
    }
  }
}

void ExplicitNodeMEG::step() {
  for (auto& s : states_) s = chain_.sample_next(s, rng_);
  rebuild_snapshot();
  advance_clock();
}

void ExplicitNodeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

void ExplicitNodeMEG::set_all_states(StateId s) {
  if (s >= chain_.num_states()) {
    throw std::out_of_range("set_all_states: state out of range");
  }
  for (auto& st : states_) st = s;
  rebuild_snapshot();
}

ConnectionMap same_state_connection(std::size_t num_states) {
  std::vector<std::vector<bool>> rows(num_states,
                                      std::vector<bool>(num_states, false));
  for (std::size_t s = 0; s < num_states; ++s) rows[s][s] = true;
  return ConnectionMap(std::move(rows));
}

ConnectionMap cycle_proximity_connection(std::size_t num_states,
                                         std::size_t radius) {
  std::vector<std::vector<bool>> rows(num_states,
                                      std::vector<bool>(num_states, false));
  const auto k = static_cast<std::ptrdiff_t>(num_states);
  for (std::ptrdiff_t a = 0; a < k; ++a) {
    for (std::ptrdiff_t b = 0; b < k; ++b) {
      const std::ptrdiff_t direct = std::abs(a - b);
      const std::ptrdiff_t wrap = k - direct;
      if (static_cast<std::size_t>(std::min(direct, wrap)) <= radius) {
        rows[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
      }
    }
  }
  return ConnectionMap(std::move(rows));
}

}  // namespace megflood
