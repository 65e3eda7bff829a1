#pragma once

// Radio broadcast with collisions on dynamic graphs — the communication
// model of the paper's reference [9] (Clementi-Monti-Pasquale-Silvestri,
// "Broadcasting in dynamic radio networks").  In each round every
// informed node decides to transmit; an uninformed node receives the
// message iff *exactly one* of its current neighbors transmits (two or
// more collide, zero is silence).  Flooding is the collision-free
// idealization; the gap between them is the price of contention.
//
// With always-transmit (tau = 1) dense neighborhoods self-jam; the
// standard remedy is ALOHA-style random transmission with probability
// tau < 1.  Both are exposed here.

#include <cstdint>
#include <string>

#include "core/dynamic_graph.hpp"
#include "core/process.hpp"
#include "util/rng.hpp"

namespace megflood {

// Radio broadcast as a SpreadingProcess.  Metrics: "transmissions" and
// "collisions" ((node, round) receptions lost to collision).
class RadioBroadcastProcess final : public SpreadingProcess {
 public:
  // Informed nodes transmit independently with probability `tau` per
  // round; tau = 1.0 reproduces the deterministic always-transmit
  // protocol.  Requires tau in (0, 1].
  explicit RadioBroadcastProcess(double tau);

  std::string name() const override;
  void begin_trial(std::size_t num_nodes, NodeId source) override;
  void round(const Snapshot& snapshot, std::vector<char>& informed,
             std::vector<NodeId>& newly, Rng& rng) override;
  void metrics(MetricsBag& out) const override;

  double tau() const noexcept { return tau_; }

 private:
  double tau_;
  std::uint64_t transmissions_ = 0;
  std::uint64_t collisions_ = 0;
  std::vector<char> transmitting_;       // round scratch
  std::vector<std::uint32_t> heard_;     // transmitting-neighbor count
};

}  // namespace megflood
