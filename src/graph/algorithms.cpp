#include "graph/algorithms.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>

namespace megflood {

std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId source) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::queue<VertexId> frontier;
  dist.at(source) = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (VertexId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

Components connected_components(const Graph& g) {
  Components comps;
  comps.component_of.assign(g.num_vertices(), kUnreachable);
  std::vector<std::size_t> sizes;
  std::queue<VertexId> frontier;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    if (comps.component_of[s] != kUnreachable) continue;
    const auto id = static_cast<std::uint32_t>(sizes.size());
    sizes.push_back(0);
    comps.component_of[s] = id;
    frontier.push(s);
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      ++sizes[id];
      for (VertexId v : g.neighbors(u)) {
        if (comps.component_of[v] == kUnreachable) {
          comps.component_of[v] = id;
          frontier.push(v);
        }
      }
    }
  }
  comps.count = sizes.size();
  comps.largest_size =
      sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
  return comps;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

std::size_t eccentricity(const Graph& g, VertexId v) {
  const auto dist = bfs_distances(g, v);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

std::size_t diameter(const Graph& g) {
  if (g.num_vertices() <= 1) return 0;
  if (!is_connected(g)) {
    throw std::invalid_argument("diameter: graph is not connected");
  }
  std::size_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    best = std::max(best, eccentricity(g, v));
  }
  return best;
}

namespace {

// The ball of v by a BFS that stops at depth `radius`: `ball` is the BFS
// queue, one depth after another, and seen[u] == mark once u is queued.
// A caller reuses `seen` across sources with a fresh mark for each.
std::vector<VertexId> bounded_ball(const Graph& g, VertexId v,
                                   std::uint32_t radius,
                                   std::vector<std::uint32_t>& seen,
                                   std::uint32_t mark) {
  std::vector<VertexId> ball;
  if (radius == 0) return ball;
  seen.at(v) = mark;
  ball.push_back(v);
  std::size_t next = 0;
  for (std::uint32_t depth = 0; depth < radius && next < ball.size();
       ++depth) {
    for (const std::size_t end = ball.size(); next < end; ++next) {
      for (const VertexId u : g.neighbors(ball[next])) {
        if (seen[u] != mark) {
          seen[u] = mark;
          ball.push_back(u);
        }
      }
    }
  }
  ball.erase(ball.begin());
  std::sort(ball.begin(), ball.end());
  return ball;
}

}  // namespace

std::vector<VertexId> ball(const Graph& g, VertexId v, std::uint32_t radius) {
  std::vector<std::uint32_t> seen(g.num_vertices(), 0);
  return bounded_ball(g, v, radius, seen, 1);
}

std::vector<std::vector<VertexId>> all_balls(const Graph& g, std::uint32_t radius) {
  std::vector<std::vector<VertexId>> balls(g.num_vertices());
  std::vector<std::uint32_t> seen(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    balls[v] = bounded_ball(g, v, radius, seen, v + 1);
  }
  return balls;
}

}  // namespace megflood
