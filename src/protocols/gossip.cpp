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
  // One row view per round: neighbors(u) would re-check the node id and
  // the CSR's validity for every node, and on a co-location snapshot the
  // group view picks a neighbour without the O(edges) CSR.  The marks
  // pointer and the contact count live in locals, so the char stores
  // into the marks cannot force them to be reloaded.
  char* const marks = informed.data();
  const std::uint64_t contacts = snapshot.visit_rows([&](const auto& rows) {
    std::uint64_t count = 0;
    for (NodeId u = 0; u < n; ++u) {
      const std::uint32_t degree = rows.degree(u);
      const char state = marks[u];
      if (degree == 0 || ((roles >> state) & 1u) == 0) continue;
      const bool sender = state == 1;
      const NodeId target = rows.neighbor(
          u, static_cast<std::uint32_t>(rng.uniform_int(degree)));
      ++count;
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
    return count;
  });
  contacts_ += contacts;
}

void GossipProcess::metrics(MetricsBag& out) const {
  out["contacts"] = static_cast<double>(contacts_);
}

}  // namespace megflood
