#pragma once

// Classic randomized gossip on dynamic graphs: per round every node
// contacts ONE uniformly random current neighbor; in push mode informed
// nodes send, in pull mode uninformed nodes fetch, push-pull does both.
// The paper's Section 5 sketches how such protocols reduce to flooding on
// a virtual dynamic graph (keep only the contacted edges); these
// implementations give the protocol-level ground truth that reduction is
// compared against.

#include <cstdint>
#include <string>

#include "core/dynamic_graph.hpp"
#include "core/process.hpp"
#include "util/rng.hpp"

namespace megflood {

enum class GossipMode {
  kPush,      // informed nodes send to one random neighbor
  kPull,      // uninformed nodes fetch from one random neighbor
  kPushPull,  // both
};

// Gossip as a SpreadingProcess (plugs into measure()).  Metric:
// "contacts" — one per participating node per round.
class GossipProcess final : public SpreadingProcess {
 public:
  explicit GossipProcess(GossipMode mode) : mode_(mode) {}

  std::string name() const override;
  void begin_trial(std::size_t num_nodes, NodeId source) override;
  void round(const Snapshot& snapshot, std::vector<char>& informed,
             std::vector<NodeId>& newly, Rng& rng) override;
  void metrics(MetricsBag& out) const override;

  GossipMode mode() const noexcept { return mode_; }

 private:
  GossipMode mode_;
  std::uint64_t contacts_ = 0;
};

}  // namespace megflood
