#include "mobility/random_paths.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>

namespace megflood {

// ---------------------------------------------------------------------------
// PathFamily
// ---------------------------------------------------------------------------

void PathFamily::build_index(std::size_t num_vertices) {
  starting_at.assign(num_vertices, {});
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    starting_at.at(paths[p].front()).push_back(p);
  }
}

PathFamily edges_path_family(const Graph& h) {
  PathFamily family;
  for (VertexId u = 0; u < h.num_vertices(); ++u) {
    for (VertexId v : h.neighbors(u)) {
      family.paths.push_back({u, v});
    }
  }
  family.build_index(h.num_vertices());
  return family;
}

void validate_path_family(const Graph& h, const PathFamily& family) {
  if (family.paths.empty()) {
    throw std::invalid_argument("path family: empty");
  }
  for (const auto& path : family.paths) {
    if (path.size() < 2) {
      throw std::invalid_argument("path family: path with < 2 points");
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!h.has_edge(path[i], path[i + 1])) {
        throw std::invalid_argument("path family: hop is not an edge of H");
      }
    }
  }
  if (family.starting_at.size() != h.num_vertices()) {
    throw std::invalid_argument("path family: index not built");
  }
  // Closure: every path's end point must start some path (the paper's
  // feasibility property), otherwise an agent gets stuck.
  for (const auto& path : family.paths) {
    if (family.starting_at.at(path.back()).empty()) {
      throw std::invalid_argument("path family: dead-end at a path end point");
    }
  }
}

bool is_simple(const PathFamily& family) {
  std::set<VertexId> seen;
  for (const auto& path : family.paths) {
    seen.clear();
    // Interior points (and the start) must be distinct; the end may close
    // a cycle back to the start.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!seen.insert(path[i]).second) return false;
    }
    const VertexId last = path.back();
    if (seen.contains(last) && last != path.front()) return false;
    if (path.size() >= 2 && last == path.front() && path.size() == 2) {
      return false;  // would need a self loop in H
    }
  }
  return true;
}

bool is_reversible(const PathFamily& family) {
  std::set<std::vector<VertexId>> all(family.paths.begin(),
                                      family.paths.end());
  for (const auto& path : family.paths) {
    std::vector<VertexId> rev(path.rbegin(), path.rend());
    if (!all.contains(rev)) return false;
  }
  return true;
}

namespace {

// max_u counts[u] / (avg_v counts[v]), 0 when every count is 0.
double max_over_mean(const std::vector<std::uint64_t>& counts) {
  std::uint64_t max_c = 0, sum = 0;
  for (std::uint64_t c : counts) {
    max_c = std::max(max_c, c);
    sum += c;
  }
  if (sum == 0) return 0.0;
  const double avg =
      static_cast<double>(sum) / static_cast<double>(counts.size());
  return static_cast<double>(max_c) / avg;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExplicitPathsModel
// ---------------------------------------------------------------------------

ExplicitPathsModel::ExplicitPathsModel(
    std::shared_ptr<const Graph> mobility_graph, PathFamily family,
    std::size_t num_agents, std::uint64_t seed)
    : graph_(std::move(mobility_graph)),
      family_(std::move(family)),
      num_agents_(num_agents),
      rng_(seed) {
  if (!graph_) throw std::invalid_argument("ExplicitPathsModel: null graph");
  if (num_agents < 2) {
    throw std::invalid_argument("ExplicitPathsModel: need at least 2 agents");
  }
  validate_path_family(*graph_, family_);
  // The uniform start below is the stationary law only for a simple,
  // reversible family.
  if (!is_simple(family_) || !is_reversible(family_)) {
    throw std::invalid_argument(
        "ExplicitPathsModel: the family must be simple and reversible");
  }

  // Prefix sums of per-path state counts (l(h) - 1) for uniform sampling
  // over the chain states (h, h_i), 2 <= i <= l(h).
  state_prefix_.resize(family_.paths.size());
  std::uint64_t acc = 0;
  for (std::size_t p = 0; p < family_.paths.size(); ++p) {
    acc += family_.paths[p].size() - 1;
    state_prefix_[p] = acc;
  }

  agents_.resize(num_agents_);
  snapshot_.reset(num_agents_);
  initialize();
}

VertexId ExplicitPathsModel::agent_position(NodeId agent) const {
  const AgentState& a = agents_.at(agent);
  return family_.paths[a.path][a.index];
}

void ExplicitPathsModel::initialize() {
  const std::uint64_t total_states = state_prefix_.back();
  for (auto& a : agents_) {
    const std::uint64_t pick = rng_.uniform_int(total_states);
    const auto it =
        std::upper_bound(state_prefix_.begin(), state_prefix_.end(), pick);
    const auto path = static_cast<std::uint32_t>(it - state_prefix_.begin());
    const std::uint64_t before = path == 0 ? 0 : state_prefix_[path - 1];
    a.path = path;
    a.index = static_cast<std::uint32_t>(1 + (pick - before));
  }
  rebuild_snapshot();
}

void ExplicitPathsModel::step() {
  for (auto& a : agents_) {
    const auto& path = family_.paths[a.path];
    if (a.index + 1 < path.size()) {
      ++a.index;
    } else {
      // At h_l: jump to a uniform path h' in P(end) and move to h'_2.
      const auto& candidates = family_.starting_at[path.back()];
      a.path = candidates[rng_.uniform_int(candidates.size())];
      a.index = 1;
    }
  }
  rebuild_snapshot();
  advance_clock();
}

void ExplicitPathsModel::rebuild_snapshot() {
  colocation_.build(snapshot_, graph_->num_vertices(),
                    [this](std::uint32_t agent) {
                      const AgentState& a = agents_[agent];
                      return family_.paths[a.path][a.index];
                    });
}

void ExplicitPathsModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

// ---------------------------------------------------------------------------
// GridLPathsModel
// ---------------------------------------------------------------------------

GridLPathsModel::GridLPathsModel(std::size_t side, std::size_t num_agents,
                                 std::uint32_t connect_radius,
                                 std::uint64_t seed)
    : side_(side),
      num_agents_(num_agents),
      connect_radius_(connect_radius),
      rng_(seed) {
  if (side < 2) throw std::invalid_argument("GridLPathsModel: side must be >= 2");
  if (num_agents < 2) {
    throw std::invalid_argument("GridLPathsModel: need at least 2 agents");
  }
  if (side > 0xffff) {
    throw std::invalid_argument("GridLPathsModel: side too large");
  }
  // Forward half of the L1 disc (excluding origin) so cross-point pairs
  // are visited once.
  const auto r = static_cast<std::int32_t>(connect_radius_);
  for (std::int32_t dr = 0; dr <= r; ++dr) {
    for (std::int32_t dc = -r; dc <= r; ++dc) {
      if (std::abs(dr) + std::abs(dc) > r) continue;
      if (dr > 0 || (dr == 0 && dc > 0)) radius_offsets_.emplace_back(dr, dc);
    }
  }
  agents_.resize(num_agents_);
  snapshot_.reset(num_agents_);
  initialize();
}

VertexId GridLPathsModel::agent_position(NodeId agent) const {
  return point_of(agents_.at(agent));
}

void GridLPathsModel::new_trip(AgentState& a) {
  // Uniform over the paths in P(u): sample (dst, bend) uniformly and
  // reject the duplicate (aligned, y-first) combination, which leaves
  // aligned destinations with their single path and the rest with two.
  const std::uint64_t points = side_ * side_;
  for (;;) {
    const std::uint64_t pick = rng_.uniform_int(points);
    const auto dr = static_cast<std::uint16_t>(pick / side_);
    const auto dc = static_cast<std::uint16_t>(pick % side_);
    if (dr == a.row && dc == a.col) continue;  // need dst != src
    const bool aligned = dr == a.row || dc == a.col;
    const Bend bend = rng_.bernoulli(0.5) ? Bend::kXFirst : Bend::kYFirst;
    if (aligned && bend == Bend::kYFirst) continue;  // duplicate path
    a.dest_row = dr;
    a.dest_col = dc;
    a.bend = aligned ? Bend::kXFirst : bend;
    return;
  }
}

void GridLPathsModel::advance(AgentState& a) {
  auto step_toward = [](std::uint16_t cur, std::uint16_t dst) {
    return static_cast<std::uint16_t>(cur < dst ? cur + 1 : cur - 1);
  };
  if (a.bend == Bend::kXFirst) {
    if (a.col != a.dest_col) {
      a.col = step_toward(a.col, a.dest_col);
    } else {
      a.row = step_toward(a.row, a.dest_row);
    }
  } else {
    if (a.row != a.dest_row) {
      a.row = step_toward(a.row, a.dest_row);
    } else {
      a.col = step_toward(a.col, a.dest_col);
    }
  }
}

void GridLPathsModel::initialize() {
  // Uniform over the chain states (h, h_i), i >= 2 (the exact stationary
  // distribution for this simple + reversible family): rejection-sample a
  // path proportionally to its state count l(h) - 1 = L1(src, dst), then
  // a uniform position along it.
  const std::uint64_t points = side_ * side_;
  const auto max_l1 = static_cast<double>(2 * (side_ - 1));
  for (auto& a : agents_) {
    for (;;) {
      const std::uint64_t src_pick = rng_.uniform_int(points);
      const std::uint64_t dst_pick = rng_.uniform_int(points);
      if (src_pick == dst_pick) continue;
      const auto sr = static_cast<std::uint16_t>(src_pick / side_);
      const auto sc = static_cast<std::uint16_t>(src_pick % side_);
      const auto dr = static_cast<std::uint16_t>(dst_pick / side_);
      const auto dc = static_cast<std::uint16_t>(dst_pick % side_);
      const bool aligned = sr == dr || sc == dc;
      const Bend bend = rng_.bernoulli(0.5) ? Bend::kXFirst : Bend::kYFirst;
      if (aligned && bend == Bend::kYFirst) continue;
      const auto l1 = static_cast<std::uint64_t>(
          std::abs(static_cast<int>(sr) - static_cast<int>(dr)) +
          std::abs(static_cast<int>(sc) - static_cast<int>(dc)));
      if (!rng_.bernoulli(static_cast<double>(l1) / max_l1)) continue;
      // Walk t hops from src along the chosen path, t uniform in [1, l1].
      const std::uint64_t t = 1 + rng_.uniform_int(l1);
      a.row = sr;
      a.col = sc;
      a.dest_row = dr;
      a.dest_col = dc;
      a.bend = aligned ? Bend::kXFirst : bend;
      for (std::uint64_t h = 0; h < t; ++h) advance(a);
      break;
    }
  }
  rebuild_snapshot();
}

void GridLPathsModel::step() {
  for (auto& a : agents_) {
    if (a.row == a.dest_row && a.col == a.dest_col) {
      new_trip(a);  // at h_l: switch path, then take the first hop
    }
    advance(a);
  }
  rebuild_snapshot();
  advance_clock();
}

void GridLPathsModel::rebuild_snapshot() {
  const auto s = static_cast<std::int32_t>(side_);
  const auto agent_point = [this](std::uint32_t a) {
    return point_of(agents_[a]);
  };
  if (connect_radius_ == 0) {  // no forward neighbours to look up
    colocation_.build(snapshot_, side_ * side_, agent_point);
    return;
  }
  colocation_.build(
      snapshot_, side_ * side_, agent_point,
      [this, s](VertexId point, auto&& visit) {
        const auto r = static_cast<std::int32_t>(point) / s;
        const auto c = static_cast<std::int32_t>(point) % s;
        for (const auto& [dr, dc] : radius_offsets_) {
          const std::int32_t rr = r + dr, cc = c + dc;
          if (rr < 0 || rr >= s || cc < 0 || cc >= s) continue;
          visit(static_cast<VertexId>(rr * s + cc));
        }
      });
}

void GridLPathsModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

std::vector<std::uint64_t> GridLPathsModel::congestion(std::size_t side) {
  // Walk every path (src, dst, bend) hop by hop and count its points
  // except the start.
  const std::size_t points = side * side;
  std::vector<std::uint64_t> counts(points, 0);
  for (std::size_t src = 0; src < points; ++src) {
    for (std::size_t dst = 0; dst < points; ++dst) {
      if (src == dst) continue;
      const bool aligned = src / side == dst / side || src % side == dst % side;
      for (const Bend bend : {Bend::kXFirst, Bend::kYFirst}) {
        if (aligned && bend == Bend::kYFirst) continue;
        AgentState a{static_cast<std::uint16_t>(src / side),
                     static_cast<std::uint16_t>(src % side),
                     static_cast<std::uint16_t>(dst / side),
                     static_cast<std::uint16_t>(dst % side), bend};
        while (a.row != a.dest_row || a.col != a.dest_col) {
          advance(a);
          ++counts[std::size_t{a.row} * side + a.col];
        }
      }
    }
  }
  return counts;
}

double GridLPathsModel::regularity_delta(std::size_t side) {
  return max_over_mean(congestion(side));
}

}  // namespace megflood
