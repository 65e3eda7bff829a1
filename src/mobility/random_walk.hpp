#pragma once

// The random walk mobility model over an arbitrary mobility graph H(V, A)
// (paper Section 4.1, "Graph Mobility Models"): each of the n agents
// occupies a point of H; per time step it jumps to a point chosen uniformly
// at random among all points within rho hops of its current point
// (including staying put, which makes the move chain lazy and hence
// aperiodic).  Two agents are connected iff their points are within r hops
// (r = 0: same point — the most studied setting, and the one Corollary 6
// and the comparison with Dimitriou et al. [15] use).  ColocationBuilder
// (mobility/colocation.hpp) writes each snapshot, the forward neighbours
// of a point being the points of its r-hop ball above it.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "mobility/colocation.hpp"
#include "util/rng.hpp"

namespace megflood {

struct RandomWalkParams {
  std::uint32_t move_radius = 1;     // rho: hops per move
  std::uint32_t connect_radius = 0;  // r: connection range in hops
  // Fraction of agents that are mobile; the rest stay put forever (the
  // mixed static/mobile population of the "high mobility can make up for
  // low transmission power" line of work, paper reference [12]).  Mobile
  // agents are the first ceil(mobile_fraction * n) ids so experiments can
  // address the two classes deterministically.
  double mobile_fraction = 1.0;
};

// The move chain's stationary law over the points of H, pi(v) ∝
// |ball_rho(v)| + 1 (the move graph is symmetric, self-loops included),
// as a CDF from the rho-hop balls (centres excluded), and a point drawn
// from it with one uniform draw.
std::vector<double> stationary_cdf(
    const std::vector<std::vector<VertexId>>& move_balls);
VertexId draw_point(const std::vector<double>& cdf, Rng& rng);

class RandomWalkModel final : public DynamicGraph {
 public:
  // The mobility graph is shared so sweeps over n reuse the precomputed
  // hop balls (the dominant construction cost).
  RandomWalkModel(std::shared_ptr<const Graph> mobility_graph,
                  std::size_t num_agents, RandomWalkParams params,
                  std::uint64_t seed);

  std::size_t num_nodes() const override { return num_agents_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  VertexId agent_position(NodeId agent) const { return positions_.at(agent); }

  // Place every agent on a fixed point (worst-case start for mixing /
  // flooding-from-cold experiments).
  void set_all_positions(VertexId point);

  bool agent_mobile(NodeId agent) const {
    return agent < num_mobile_;
  }

 private:
  void initialize();
  void rebuild_snapshot();

  std::shared_ptr<const Graph> graph_;
  std::size_t num_agents_;
  std::size_t num_mobile_;
  RandomWalkParams params_;
  Rng rng_;
  std::vector<std::vector<VertexId>> move_balls_;     // excl. center
  std::vector<std::vector<VertexId>> connect_balls_;  // excl. center
  // Agents start i.i.d. from the stationary law, so the process starts
  // stationary.
  std::vector<double> stationary_cdf_;
  std::vector<VertexId> positions_;
  ColocationBuilder colocation_;
  Snapshot snapshot_;
};

}  // namespace megflood
