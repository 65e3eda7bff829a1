#pragma once

// Parsimonious flooding (Baumann-Crescenzi-Fraigniaud, reference [4] in
// the paper): a node relays the message only for the first `ttl` rounds
// after becoming informed, then stops transmitting (it stays informed).
// With ttl = infinity this is exactly the paper's flooding; small ttl
// trades completion probability for message complexity.  Included as a
// protocol baseline for the experiments on refined protocols (Section 5).

#include <cstdint>
#include <string>

#include "core/dynamic_graph.hpp"
#include "core/process.hpp"

namespace megflood {

// Parsimonious flooding as a SpreadingProcess.  Deterministic (consumes
// no randomness).  Metric: "transmissions" — (node, round) relays
// attempted, the message complexity the variant tries to reduce.  When
// every node's relay budget expires before completion the process reports
// exhausted() and the trial ends early as incomplete.
class TtlFloodingProcess final : public SpreadingProcess {
 public:
  explicit TtlFloodingProcess(std::uint64_t ttl);

  std::string name() const override { return "ttl:" + std::to_string(ttl_); }
  void begin_trial(std::size_t num_nodes, NodeId source) override;
  void round(const Snapshot& snapshot, std::vector<char>& informed,
             std::vector<NodeId>& newly, Rng& rng) override;
  bool exhausted() const override { return exhausted_; }
  void metrics(MetricsBag& out) const override;

  std::uint64_t ttl() const noexcept { return ttl_; }

 private:
  std::uint64_t ttl_;
  std::uint64_t transmissions_ = 0;
  bool exhausted_ = false;
  // remaining_[v]: rounds of relaying left; 0 = uninformed or expired.
  std::vector<std::uint64_t> remaining_;
};

}  // namespace megflood
