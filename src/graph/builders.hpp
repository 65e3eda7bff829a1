#pragma once

// Deterministic graph constructors for every topology the paper's
// experiments need: paths, cycles, cliques and stars, grids and tori
// (mobility spaces), and k-augmented grids (Corollary 6's headline
// example).

#include <cstddef>

#include "graph/graph.hpp"

namespace megflood {

Graph path_graph(std::size_t n);
Graph cycle_graph(std::size_t n);
Graph complete_graph(std::size_t n);
Graph star_graph(std::size_t n);  // vertex 0 is the hub

// side x side 4-neighbor grid.  Vertex (r, c) has index r * side + c.
Graph grid_2d(std::size_t side);

// side x side 4-neighbor torus (wrap-around grid).
Graph torus_2d(std::size_t side);

// k-augmented grid (paper, discussion after Corollary 6): start from the
// side x side grid and connect every pair of points at hop distance <= k
// (hop distance on the grid = L1 distance).  k = 1 gives the plain grid.
Graph k_augmented_grid(std::size_t side, std::size_t k);

// k-augmented torus: same construction over the wrap-around grid.  Every
// vertex has identical degree 2k(k+1) (for k < side/2), so the graph is
// 1-regular in the paper's delta sense — the clean instrument for
// isolating the k^2 mixing-time effect of Corollary 6 from boundary
// degree-ratio noise.  Requires side > 2k + 1.
Graph k_augmented_torus(std::size_t side, std::size_t k);

// Row-major helpers for grid-indexed graphs.
inline VertexId grid_index(std::size_t side, std::size_t row, std::size_t col) {
  return static_cast<VertexId>(row * side + col);
}

}  // namespace megflood
