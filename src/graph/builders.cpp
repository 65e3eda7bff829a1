#include "graph/builders.hpp"

#include <cassert>
#include <cstdlib>

namespace megflood {

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return g;
}

Graph cycle_graph(std::size_t n) {
  Graph g = path_graph(n);
  if (n >= 3) g.add_edge(static_cast<VertexId>(n - 1), 0);
  return g;
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      g.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(j));
    }
  }
  return g;
}

Graph star_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(0, static_cast<VertexId>(i));
  }
  return g;
}

Graph grid_2d(std::size_t side) {
  Graph g(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) g.add_edge(grid_index(side, r, c), grid_index(side, r, c + 1));
      if (r + 1 < side) g.add_edge(grid_index(side, r, c), grid_index(side, r + 1, c));
    }
  }
  return g;
}

Graph torus_2d(std::size_t side) {
  assert(side >= 3);  // side < 3 would create duplicate/self edges
  Graph g(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      g.add_edge(grid_index(side, r, c), grid_index(side, r, (c + 1) % side));
      g.add_edge(grid_index(side, r, c), grid_index(side, (r + 1) % side, c));
    }
  }
  return g;
}

Graph k_augmented_grid(std::size_t side, std::size_t k) {
  assert(k >= 1);
  Graph g(side * side);
  const auto s = static_cast<std::ptrdiff_t>(side);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  for (std::ptrdiff_t r = 0; r < s; ++r) {
    for (std::ptrdiff_t c = 0; c < s; ++c) {
      // Connect (r, c) to every point at L1 distance in [1, k]; emitting
      // each unordered pair once via add_edge's duplicate rejection.
      for (std::ptrdiff_t dr = -kk; dr <= kk; ++dr) {
        for (std::ptrdiff_t dc = -kk; dc <= kk; ++dc) {
          const std::ptrdiff_t dist = std::abs(dr) + std::abs(dc);
          if (dist < 1 || dist > kk) continue;
          const std::ptrdiff_t nr = r + dr, nc = c + dc;
          if (nr < 0 || nr >= s || nc < 0 || nc >= s) continue;
          const auto u = grid_index(side, static_cast<std::size_t>(r),
                                    static_cast<std::size_t>(c));
          const auto v = grid_index(side, static_cast<std::size_t>(nr),
                                    static_cast<std::size_t>(nc));
          if (u < v) g.add_edge(u, v);
        }
      }
    }
  }
  return g;
}

Graph k_augmented_torus(std::size_t side, std::size_t k) {
  assert(k >= 1);
  assert(side > 2 * k + 1);  // otherwise L1 balls self-overlap and dedup
  Graph g(side * side);
  const auto s = static_cast<std::ptrdiff_t>(side);
  const auto kk = static_cast<std::ptrdiff_t>(k);
  auto wrap = [&](std::ptrdiff_t v) {
    return static_cast<std::size_t>(((v % s) + s) % s);
  };
  for (std::ptrdiff_t r = 0; r < s; ++r) {
    for (std::ptrdiff_t c = 0; c < s; ++c) {
      for (std::ptrdiff_t dr = -kk; dr <= kk; ++dr) {
        for (std::ptrdiff_t dc = -kk; dc <= kk; ++dc) {
          const std::ptrdiff_t dist = std::abs(dr) + std::abs(dc);
          if (dist < 1 || dist > kk) continue;
          const auto u = grid_index(side, static_cast<std::size_t>(r),
                                    static_cast<std::size_t>(c));
          const auto v = grid_index(side, wrap(r + dr), wrap(c + dc));
          g.add_edge(u, v);  // duplicate rejection keeps the graph simple
        }
      }
    }
  }
  return g;
}

}  // namespace megflood
