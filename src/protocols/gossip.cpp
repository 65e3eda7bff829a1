#include "protocols/gossip.hpp"

namespace megflood {

std::string GossipProcess::name() const {
  switch (mode_) {
    case GossipMode::kPush:
      return "gossip:push";
    case GossipMode::kPull:
      return "gossip:pull";
    case GossipMode::kPushPull:
      return "gossip:pushpull";
  }
  return "gossip";
}

void GossipProcess::begin_trial(std::size_t /*num_nodes*/, NodeId /*source*/) {
  contacts_ = 0;
}

void GossipProcess::round(const Snapshot& snapshot,
                          std::vector<char>& informed,
                          std::vector<NodeId>& newly, Rng& rng) {
  const std::size_t n = informed.size();
  const bool push = mode_ != GossipMode::kPull;
  const bool pull = mode_ != GossipMode::kPush;
  for (NodeId u = 0; u < n; ++u) {
    const auto& nbrs = snapshot.neighbors(u);
    if (nbrs.empty()) continue;
    const bool participates =
        (informed[u] == 1 && push) || (informed[u] == 0 && pull);
    if (!participates) continue;
    const NodeId target = nbrs[rng.uniform_int(nbrs.size())];
    ++contacts_;
    if (informed[u] == 1) {
      // push: u sends to target
      if (!informed[target]) {
        informed[target] = 2;
        newly.push_back(target);
      }
    } else {
      // pull: u fetches from target (only pre-round informed targets
      // count — mark-2 nodes learned it this round and cannot serve it)
      if (informed[target] == 1) {
        informed[u] = 2;
        newly.push_back(u);
      }
    }
  }
}

void GossipProcess::metrics(MetricsBag& out) const {
  out["contacts"] = static_cast<double>(contacts_);
}

}  // namespace megflood
