#pragma once

// BFS-based graph algorithms: distances, connectivity, diameter, and
// bounded-hop neighborhoods (the random-walk mobility model moves up to
// rho hops per round and connects nodes within r hops — both need
// precomputed hop balls).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace megflood {

inline constexpr std::uint32_t kUnreachable = 0xffffffffu;

// Hop distances from `source` to every vertex (kUnreachable if none).
std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId source);

// Component id per vertex, ids are [0, num_components).
struct Components {
  std::vector<std::uint32_t> component_of;
  std::size_t count = 0;
  std::size_t largest_size = 0;
};
Components connected_components(const Graph& g);

bool is_connected(const Graph& g);

// Exact diameter via all-sources BFS: O(V * (V + E)).  Fine for the
// mobility graphs we use (<= ~10^4 vertices).  Returns 0 for empty or
// single-vertex graphs; precondition: g connected (checked).
std::size_t diameter(const Graph& g);

// Eccentricity of a vertex (max hop distance to any reachable vertex).
std::size_t eccentricity(const Graph& g, VertexId v);

// All vertices within hop distance [1, radius] of v (v excluded),
// ascending; a BFS cut at depth `radius`, so O(|ball| * degree).
std::vector<VertexId> ball(const Graph& g, VertexId v, std::uint32_t radius);

// Precomputed hop balls for every vertex; ball(v, 0) = {} convention.
// One visited array serves every source, so the cost is the sum of the
// balls' BFS work, not V BFS passes over the whole graph.
std::vector<std::vector<VertexId>> all_balls(const Graph& g, std::uint32_t radius);

}  // namespace megflood
