#pragma once

// The randomized protocol sketched in the paper's Conclusions (Section 5):
// at every step, a node that possesses the information transmits it to a
// randomly chosen subset of its current neighbors.  The paper observes
// that its analysis reduces to flooding on a "virtual" dynamic graph from
// which a subset of the edges has been removed; both the direct protocol
// and that reduction are implemented here, and experiment E10 checks they
// behave alike and stay within the flooding bound's regime.

#include <cstdint>
#include <memory>
#include <string>

#include "core/dynamic_graph.hpp"
#include "core/process.hpp"
#include "util/rng.hpp"

namespace megflood {

// Direct simulation as a SpreadingProcess: every informed node pushes to
// min(k, deg) uniformly chosen distinct current neighbors per round.
// Metric: "transmissions" — actual pushes sent (counting duplicates to
// already-informed targets, which still cost bandwidth).
class KPushProcess final : public SpreadingProcess {
 public:
  explicit KPushProcess(std::size_t k);

  std::string name() const override { return "kpush:" + std::to_string(k_); }
  void begin_trial(std::size_t num_nodes, NodeId source) override;
  void round(const Snapshot& snapshot, std::vector<char>& informed,
             std::vector<NodeId>& newly, Rng& rng) override;
  void metrics(MetricsBag& out) const override;

  std::size_t k() const noexcept { return k_; }

 private:
  std::size_t k_;
  std::uint64_t transmissions_ = 0;
  std::vector<NodeId> picks_;  // round scratch
};

// The reduction: a DynamicGraph whose snapshot keeps, for every node, at
// most k uniformly chosen incident edges of the inner model's snapshot
// (an edge survives if either endpoint selects it).  Plain flooding on
// this overlay is the paper's virtual-dynamic-graph view of the k-push
// protocol.
class RandomSubsetOverlay final : public DynamicGraph {
 public:
  // Does not own `inner`; the overlay advances it on step().
  RandomSubsetOverlay(DynamicGraph& inner, std::size_t k, std::uint64_t seed);

  // Owning variant for factory-built trial graphs: the overlay keeps the
  // inner model alive (measure()'s per-trial factories return one object).
  RandomSubsetOverlay(std::unique_ptr<DynamicGraph> inner, std::size_t k,
                      std::uint64_t seed);

  std::size_t num_nodes() const override { return inner_->num_nodes(); }
  const Snapshot& snapshot() const override { return overlay_; }
  void step() override;
  void reset(std::uint64_t seed) override;

 private:
  void rebuild_overlay();

  DynamicGraph* inner_;
  std::unique_ptr<DynamicGraph> owned_;  // null in the non-owning case
  std::size_t k_;
  Rng rng_;
  Snapshot overlay_;
};

}  // namespace megflood
