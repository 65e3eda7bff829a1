#pragma once

// Brute-force oracle for the random trip model's radius snapshot on a
// multi-point grid (ProximitySnapshotEngine): re-derives every agent's
// bucket from the documented formula and lists the within-radius pairs
// in the documented order: buckets row-major; within a bucket, then its
// E, SW, S and SE neighbours; members ascending by agent id.  It shares
// no code with the engine, so a test comparing the two checks the order
// contract, not one implementation against itself.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"

namespace megflood {

// The pairs (a, b) of agents within `radius`, agent i at grid point
// cells[i], in the engine's emission order.
inline std::vector<std::pair<NodeId, NodeId>> canonical_pairs(
    const SquareGrid& g, double radius, const std::vector<CellId>& cells) {
  const std::size_t m = g.resolution();
  const std::uint64_t bps = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::floor(g.side_length() / radius)));
  const auto axis_bucket = [&](std::uint64_t coord) {
    return std::min<std::uint64_t>(coord * bps / (m - 1), bps - 1);
  };
  std::vector<std::vector<NodeId>> members(bps * bps);
  for (NodeId agent = 0; agent < cells.size(); ++agent) {
    members[axis_bucket(g.row(cells[agent])) * bps +
            axis_bucket(g.col(cells[agent]))]
        .push_back(agent);
  }
  const double r2 = radius * radius;
  std::vector<std::pair<NodeId, NodeId>> out;
  const auto scan = [&](const std::vector<NodeId>& home,
                        const std::vector<NodeId>& other, bool same) {
    for (std::size_t a = 0; a < home.size(); ++a) {
      for (std::size_t c = same ? a + 1 : 0; c < other.size(); ++c) {
        if (squared_distance(g.position(cells[home[a]]),
                             g.position(cells[other[c]])) <= r2) {
          out.emplace_back(home[a], other[c]);
        }
      }
    }
  };
  const auto ibps = static_cast<std::int64_t>(bps);
  for (std::int64_t br = 0; br < ibps; ++br) {
    for (std::int64_t bc = 0; bc < ibps; ++bc) {
      const auto& home = members[static_cast<std::size_t>(br * ibps + bc)];
      scan(home, home, true);
      const std::int64_t forward[4][2] = {{0, 1}, {1, -1}, {1, 0}, {1, 1}};
      for (const auto& off : forward) {
        const std::int64_t nr = br + off[0], nc = bc + off[1];
        if (nr < 0 || nr >= ibps || nc < 0 || nc >= ibps) continue;
        scan(home, members[static_cast<std::size_t>(nr * ibps + nc)], false);
      }
    }
  }
  return out;
}

}  // namespace megflood
