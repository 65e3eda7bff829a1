#include "mobility/random_waypoint.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace megflood {

RandomWaypointModel::RandomWaypointModel(std::size_t num_agents,
                                         WaypointParams params,
                                         std::uint64_t seed)
    : num_agents_(num_agents),
      params_(params),
      rng_(seed),
      engine_(SquareGrid(params.resolution, params.side_length), params.radius,
              num_agents) {
  if (num_agents < 2) {
    throw std::invalid_argument("RandomWaypointModel: need at least 2 agents");
  }
  if (params_.v_min <= 0.0 || params_.v_max < params_.v_min) {
    throw std::invalid_argument(
        "RandomWaypointModel: need 0 < v_min <= v_max");
  }
  agents_.resize(num_agents_);
  arrivals_.resize(num_agents_);
  initialize();
}

void RandomWaypointModel::new_trip(AgentState& agent) {
  // Destination uniform over the grid points (the paper's discretization
  // of "uniform over the square"); speed uniform in [v_min, v_max].
  const SquareGrid& grid = engine_.grid();
  const auto dest_cell =
      static_cast<CellId>(rng_.uniform_int(grid.num_points()));
  agent.dest = grid.position(dest_cell);
  agent.speed = rng_.uniform(params_.v_min, params_.v_max);
}

void RandomWaypointModel::initialize() {
  const SquareGrid& grid = engine_.grid();
  std::vector<Point2D>& positions = engine_.positions();
  for (std::size_t i = 0; i < num_agents_; ++i) {
    const auto cell = static_cast<CellId>(rng_.uniform_int(grid.num_points()));
    positions[i] = grid.position(cell);
    new_trip(agents_[i]);
  }
  engine_.moved();
}

void RandomWaypointModel::step() {
  std::vector<Point2D>& positions = engine_.positions();
  // First pass, no draws: an agent short of its waypoint moves the
  // fraction speed / dist of the way there (the first leg of the loop
  // below, bit for bit); the rest are listed as arrivals.
  std::size_t arrivals = 0;
  for (std::size_t i = 0; i < num_agents_; ++i) {
    const AgentState& agent = agents_[i];
    Point2D& pos = positions[i];
    const double dist = euclidean_distance(pos, agent.dest);
    const bool arrives = dist <= agent.speed;
    arrivals_[arrivals] = static_cast<std::uint32_t>(i);
    arrivals += arrives;
    if (!arrives) {
      const double frac = agent.speed / dist;
      pos.x += (agent.dest.x - pos.x) * frac;
      pos.y += (agent.dest.y - pos.y) * frac;
    }
  }
  // Second pass, ascending, so the draws keep the one-loop order.
  for (std::size_t k = 0; k < arrivals; ++k) {
    AgentState& agent = agents_[arrivals_[k]];
    Point2D& pos = positions[arrivals_[k]];
    double budget = agent.speed;
    // Travel `speed` distance this round, switching trips at waypoints so
    // agents never stall (leftover budget carries into the new leg).
    for (int leg = 0; leg < 16 && budget > 0.0; ++leg) {
      const double dist = euclidean_distance(pos, agent.dest);
      if (dist <= budget) {
        budget -= dist;
        pos = agent.dest;
        new_trip(agent);
      } else {
        const double frac = budget / dist;
        pos.x += (agent.dest.x - pos.x) * frac;
        pos.y += (agent.dest.y - pos.y) * frac;
        budget = 0.0;
      }
    }
  }
  engine_.moved();
  advance_clock();
}

void RandomWaypointModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

void RandomWaypointModel::collapse_to(const Point2D& point) {
  std::vector<Point2D>& positions = engine_.positions();
  for (std::size_t i = 0; i < num_agents_; ++i) {
    positions[i] = point;
    new_trip(agents_[i]);
  }
  engine_.moved();
}

std::uint64_t RandomWaypointModel::suggested_warmup(
    const WaypointParams& params, double c) {
  // Callable before a model exists (the scenario layer resolves
  // --warmup=auto from raw params), so it must do its own validation:
  // ceil(x / 0) would be inf and the uint64 cast undefined.
  if (params.v_max <= 0.0 || params.side_length <= 0.0) {
    throw std::invalid_argument(
        "RandomWaypointModel::suggested_warmup: need v_max > 0 and "
        "side_length > 0");
  }
  return static_cast<std::uint64_t>(
      std::ceil(c * params.side_length / params.v_max));
}

std::uint64_t RandomWaypointModel::suggested_warmup(double c) const {
  return suggested_warmup(params_, c);
}

}  // namespace megflood
