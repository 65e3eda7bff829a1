#include "protocols/radio_broadcast.hpp"

#include <stdexcept>

#include "util/table.hpp"

namespace megflood {

RadioBroadcastProcess::RadioBroadcastProcess(double tau) : tau_(tau) {
  if (tau <= 0.0 || tau > 1.0) {
    throw std::invalid_argument(
        "RadioBroadcastProcess: tau must be in (0,1]");
  }
}

std::string RadioBroadcastProcess::name() const {
  return "radio:" + Table::num(tau_, 2);
}

void RadioBroadcastProcess::begin_trial(std::size_t num_nodes,
                                        NodeId /*source*/) {
  transmissions_ = 0;
  collisions_ = 0;
  transmitting_.assign(num_nodes, 0);
  heard_.assign(num_nodes, 0);
}

void RadioBroadcastProcess::round(const Snapshot& snapshot,
                                  std::vector<char>& informed,
                                  std::vector<NodeId>& newly, Rng& rng) {
  const std::size_t n = informed.size();
  // Phase 1: informed nodes decide whether to transmit.
  for (NodeId u = 0; u < n; ++u) {
    transmitting_[u] =
        informed[u] == 1 && (tau_ >= 1.0 || rng.bernoulli(tau_));
    if (transmitting_[u]) ++transmissions_;
  }
  // Phase 2: reception — exactly one transmitting neighbor.
  for (NodeId u = 0; u < n; ++u) heard_[u] = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!transmitting_[u]) continue;
    for (NodeId v : snapshot.neighbors(u)) ++heard_[v];
  }
  for (NodeId v = 0; v < n; ++v) {
    if (informed[v]) continue;
    if (heard_[v] == 1) {
      informed[v] = 2;
      newly.push_back(v);
    } else if (heard_[v] > 1) {
      ++collisions_;
    }
  }
}

void RadioBroadcastProcess::metrics(MetricsBag& out) const {
  out["transmissions"] = static_cast<double>(transmissions_);
  out["collisions"] = static_cast<double>(collisions_);
}

}  // namespace megflood
