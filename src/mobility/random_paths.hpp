#pragma once

// The random paths mobility model (paper Section 4.1, "Graph Mobility
// Models"): the model is a pair RP = (H, P) of a mobility graph H(V, A)
// and a family P of feasible paths such that every path's end point starts
// some other path.  An agent at the end of a path picks a new path
// uniformly from P(end) and travels it one edge per time step.  Agents are
// connected iff they occupy the same point.
//
// The node-MEG chain M_RP has states (h, h_i) for h in P, 2 <= i <= l(h);
// when RP is simple and reversible its stationary distribution is uniform
// over states (via the Markov Trace Model, [14] Thm 11), which both
// implementations use for exact stationary initialization.
//
// Two implementations:
//  * ExplicitPathsModel — the family is an explicit list of paths (tests,
//    small models, the "edges of H" family that recovers the random walk).
//  * GridLPathsModel    — the implicit family of L-shaped (x-first /
//    y-first) shortest paths between all pairs of an s x s grid, the
//    paper's basic instance "H is a grid and the feasible paths are the
//    shortest ones"; supports an optional hop connection radius, which
//    also covers the Manhattan random waypoint variant of [13].  It also
//    gives the family's exact #P(u) congestion and delta-regularity,
//    Corollary 5's condition.
//
// ColocationBuilder (mobility/colocation.hpp) writes both models'
// snapshots; the grid's forward neighbours of a point are the points of
// the forward half of its L1 disc, in radius_offsets_ order.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "mobility/colocation.hpp"
#include "util/rng.hpp"

namespace megflood {

// ---------------------------------------------------------------------------
// Explicit path families
// ---------------------------------------------------------------------------

struct PathFamily {
  // Each path is a sequence of >= 2 vertices of the mobility graph, every
  // consecutive pair an edge of H (validated by validate()).
  std::vector<std::vector<VertexId>> paths;

  // Indices of paths starting at each vertex.
  std::vector<std::vector<std::uint32_t>> starting_at;

  void build_index(std::size_t num_vertices);
};

// The family of all directed edges of H as 2-point paths; the resulting
// random paths model is exactly the (non-lazy) random walk on H.
PathFamily edges_path_family(const Graph& h);

// Validation / structural predicates from the paper.
// Throws std::invalid_argument on malformed families (empty paths, non-edge
// hops, dead-end endpoints).
void validate_path_family(const Graph& h, const PathFamily& family);

// Simple: no path visits a point twice (start == end allowed).
bool is_simple(const PathFamily& family);

// Reversible: the reverse of every path is in the family.
bool is_reversible(const PathFamily& family);

class ExplicitPathsModel final : public DynamicGraph {
 public:
  // Requires a valid family over `mobility_graph` that is simple and
  // reversible (throws std::invalid_argument otherwise): initial agent
  // states are uniform over the chain states, the exact stationary start
  // for exactly those families.
  ExplicitPathsModel(std::shared_ptr<const Graph> mobility_graph,
                     PathFamily family, std::size_t num_agents,
                     std::uint64_t seed);

  std::size_t num_nodes() const override { return num_agents_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  VertexId agent_position(NodeId agent) const;

 private:
  struct AgentState {
    std::uint32_t path = 0;
    std::uint32_t index = 1;  // 0-based position in the path, >= 1
  };

  void initialize();
  void rebuild_snapshot();

  std::shared_ptr<const Graph> graph_;
  PathFamily family_;
  std::size_t num_agents_;
  Rng rng_;
  // Cumulative (l(h) - 1) weights for uniform chain-state sampling.
  std::vector<std::uint64_t> state_prefix_;
  std::vector<AgentState> agents_;
  ColocationBuilder colocation_;
  Snapshot snapshot_;
};

// ---------------------------------------------------------------------------
// Implicit L-paths on a grid
// ---------------------------------------------------------------------------

class GridLPathsModel final : public DynamicGraph {
 public:
  // s x s grid; agents travel L-shaped shortest paths (x-first or y-first
  // legs) between uniformly chosen endpoints; connected iff L1 hop
  // distance <= connect_radius (0 = same point, the paper's setting).
  GridLPathsModel(std::size_t side, std::size_t num_agents,
                  std::uint32_t connect_radius, std::uint64_t seed);

  std::size_t num_nodes() const override { return num_agents_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  VertexId agent_position(NodeId agent) const;

  // Exact #P(u) congestion of the full L-path family by enumeration, and
  // its delta-regularity (Corollary 5's condition).
  static std::vector<std::uint64_t> congestion(std::size_t side);
  static double regularity_delta(std::size_t side);

 private:
  enum class Bend : std::uint8_t { kXFirst, kYFirst };

  struct AgentState {
    std::uint16_t row = 0, col = 0;            // current point
    std::uint16_t dest_row = 0, dest_col = 0;  // trip destination
    Bend bend = Bend::kXFirst;
  };

  void initialize();
  void new_trip(AgentState& a);
  static void advance(AgentState& a);
  void rebuild_snapshot();
  VertexId point_of(const AgentState& a) const {
    return static_cast<VertexId>(a.row * side_ + a.col);
  }

  std::size_t side_;
  std::size_t num_agents_;
  std::uint32_t connect_radius_;
  Rng rng_;
  std::vector<AgentState> agents_;
  std::vector<std::pair<std::int32_t, std::int32_t>> radius_offsets_;
  ColocationBuilder colocation_;
  Snapshot snapshot_;
};

}  // namespace megflood
