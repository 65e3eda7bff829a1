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
  require_snapshot_nodes(snapshot, n);
  // Bit s is set iff a node with mark s contacts a neighbour: bit 0 for
  // pulling uninformed nodes, bit 1 for pushing informed ones; mark 2
  // (informed this round) never takes part.
  const unsigned roles = (mode_ != GossipMode::kPush ? 1u : 0u) |
                         (mode_ != GossipMode::kPull ? 2u : 0u);
  // One CSR read per round: neighbors(u) would re-check the node id and
  // the CSR's validity for every node.  The marks pointer and the contact
  // count live in locals, so the char stores into the marks cannot force
  // them to be reloaded.
  const auto [offsets, adjacency] = snapshot.csr();
  char* const marks = informed.data();
  std::uint64_t contacts = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t begin = offsets[u];
    const std::uint32_t degree = offsets[u + 1] - begin;
    const char state = marks[u];
    if (degree == 0 || ((roles >> state) & 1u) == 0) continue;
    const bool sender = state == 1;
    const NodeId target = adjacency[begin + rng.uniform_int(degree)];
    ++contacts;
    // push: u sends, and an uninformed target learns.  pull: u fetches,
    // and learns iff the target was informed before the round (a mark-2
    // node learned it this round and cannot serve it).  Picking the
    // learner and the test by selects instead of branching on the role
    // keeps the mid-spread mix of roles from mispredicting.
    const NodeId learner = sender ? target : u;
    if (marks[target] == (sender ? 0 : 1)) {
      marks[learner] = 2;
      newly.push_back(learner);
    }
  }
  contacts_ += contacts;
}

void GossipProcess::metrics(MetricsBag& out) const {
  out["contacts"] = static_cast<double>(contacts_);
}

}  // namespace megflood
