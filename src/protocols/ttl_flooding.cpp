#include "protocols/ttl_flooding.hpp"

#include <stdexcept>

namespace megflood {

TtlFloodingProcess::TtlFloodingProcess(std::uint64_t ttl) : ttl_(ttl) {
  if (ttl == 0) {
    throw std::invalid_argument("TtlFloodingProcess: ttl must be >= 1");
  }
}

void TtlFloodingProcess::begin_trial(std::size_t num_nodes, NodeId source) {
  transmissions_ = 0;
  exhausted_ = false;
  remaining_.assign(num_nodes, 0);
  remaining_[source] = ttl_;
}

void TtlFloodingProcess::round(const Snapshot& snapshot,
                               std::vector<char>& informed,
                               std::vector<NodeId>& newly, Rng& /*rng*/) {
  const std::size_t n = informed.size();
  bool anyone_active = false;
  for (NodeId u = 0; u < n; ++u) {
    if (remaining_[u] == 0) continue;
    anyone_active = true;
    ++transmissions_;
    for (NodeId v : snapshot.neighbors(u)) {
      if (!informed[v]) {
        informed[v] = 2;
        newly.push_back(v);
      }
    }
  }
  // Age the active set, then activate this round's newly informed.
  for (NodeId u = 0; u < n; ++u) {
    if (remaining_[u] > 0) --remaining_[u];
  }
  for (NodeId v : newly) remaining_[v] = ttl_;
  exhausted_ = !anyone_active;
}

void TtlFloodingProcess::metrics(MetricsBag& out) const {
  out["transmissions"] = static_cast<double>(transmissions_);
}

}  // namespace megflood
