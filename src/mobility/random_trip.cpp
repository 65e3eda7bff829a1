#include "mobility/random_trip.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace megflood {

// ---------------------------------------------------------------------------
// SquareWaypointPolicy
// ---------------------------------------------------------------------------

SquareWaypointPolicy::SquareWaypointPolicy(double side, double v_min,
                                           double v_max,
                                           std::uint64_t pause_lo,
                                           std::uint64_t pause_hi)
    : side_(side),
      v_min_(v_min),
      v_max_(v_max),
      pause_lo_(pause_lo),
      pause_hi_(pause_hi) {
  if (side <= 0.0) {
    throw std::invalid_argument("SquareWaypointPolicy: side must be > 0");
  }
  if (v_min <= 0.0 || v_max < v_min) {
    throw std::invalid_argument("SquareWaypointPolicy: need 0 < v_min <= v_max");
  }
  if (pause_hi < pause_lo) {
    throw std::invalid_argument("SquareWaypointPolicy: pause_hi < pause_lo");
  }
}

bool SquareWaypointPolicy::contains(const Point2D& p) const {
  return p.x >= 0.0 && p.x <= side_ && p.y >= 0.0 && p.y <= side_;
}

Point2D SquareWaypointPolicy::random_point(Rng& rng) const {
  return {rng.uniform(0.0, side_), rng.uniform(0.0, side_)};
}

Trip SquareWaypointPolicy::next_trip(const Point2D& /*from*/, Rng& rng) const {
  Trip trip;
  trip.destination = random_point(rng);
  trip.speed = rng.uniform(v_min_, v_max_);
  trip.pause_rounds =
      pause_lo_ +
      (pause_hi_ > pause_lo_ ? rng.uniform_int(pause_hi_ - pause_lo_ + 1)
                             : 0);
  return trip;
}

// ---------------------------------------------------------------------------
// DiskWaypointPolicy
// ---------------------------------------------------------------------------

DiskWaypointPolicy::DiskWaypointPolicy(double side, double v_min, double v_max)
    : side_(side), v_min_(v_min), v_max_(v_max) {
  if (side <= 0.0) {
    throw std::invalid_argument("DiskWaypointPolicy: side must be > 0");
  }
  if (v_min <= 0.0 || v_max < v_min) {
    throw std::invalid_argument("DiskWaypointPolicy: need 0 < v_min <= v_max");
  }
}

bool DiskWaypointPolicy::contains(const Point2D& p) const {
  const double r = side_ / 2.0;
  const double dx = p.x - r, dy = p.y - r;
  return dx * dx + dy * dy <= r * r + 1e-12;
}

Point2D DiskWaypointPolicy::random_point(Rng& rng) const {
  // Rejection from the bounding square: acceptance ~ pi/4.
  for (;;) {
    const Point2D p{rng.uniform(0.0, side_), rng.uniform(0.0, side_)};
    if (contains(p)) return p;
  }
}

Trip DiskWaypointPolicy::next_trip(const Point2D& /*from*/, Rng& rng) const {
  Trip trip;
  trip.destination = random_point(rng);
  trip.speed = rng.uniform(v_min_, v_max_);
  trip.pause_rounds = 0;
  return trip;
}

// ---------------------------------------------------------------------------
// RandomDirectionPolicy
// ---------------------------------------------------------------------------

RandomDirectionPolicy::RandomDirectionPolicy(double side, double v_min,
                                             double v_max, double leg_lo,
                                             double leg_hi)
    : side_(side),
      v_min_(v_min),
      v_max_(v_max),
      leg_lo_(leg_lo),
      leg_hi_(leg_hi) {
  if (side <= 0.0) {
    throw std::invalid_argument("RandomDirectionPolicy: side must be > 0");
  }
  if (v_min <= 0.0 || v_max < v_min) {
    throw std::invalid_argument(
        "RandomDirectionPolicy: need 0 < v_min <= v_max");
  }
  if (leg_lo <= 0.0 || leg_hi < leg_lo) {
    throw std::invalid_argument(
        "RandomDirectionPolicy: need 0 < leg_lo <= leg_hi");
  }
}

bool RandomDirectionPolicy::contains(const Point2D& p) const {
  return p.x >= 0.0 && p.x <= side_ && p.y >= 0.0 && p.y <= side_;
}

Point2D RandomDirectionPolicy::random_point(Rng& rng) const {
  return {rng.uniform(0.0, side_), rng.uniform(0.0, side_)};
}

Trip RandomDirectionPolicy::next_trip(const Point2D& from, Rng& rng) const {
  const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
  const double leg = rng.uniform(leg_lo_, leg_hi_);
  // Truncate the leg at the square border: find the largest t <= leg with
  // from + t * dir inside the square.
  const double dx = std::cos(angle), dy = std::sin(angle);
  double t_max = leg;
  if (dx > 1e-12) t_max = std::min(t_max, (side_ - from.x) / dx);
  if (dx < -1e-12) t_max = std::min(t_max, (0.0 - from.x) / dx);
  if (dy > 1e-12) t_max = std::min(t_max, (side_ - from.y) / dy);
  if (dy < -1e-12) t_max = std::min(t_max, (0.0 - from.y) / dy);
  t_max = std::max(0.0, t_max);
  Trip trip;
  trip.destination = {from.x + t_max * dx, from.y + t_max * dy};
  // Clamp residual floating point drift back into the square.
  trip.destination.x = std::min(side_, std::max(0.0, trip.destination.x));
  trip.destination.y = std::min(side_, std::max(0.0, trip.destination.y));
  trip.speed = rng.uniform(v_min_, v_max_);
  trip.pause_rounds = 0;
  return trip;
}

// ---------------------------------------------------------------------------
// RandomTripModel
// ---------------------------------------------------------------------------

RandomTripModel::RandomTripModel(std::size_t num_agents,
                                 std::shared_ptr<const TripPolicy> policy,
                                 double radius, std::size_t resolution,
                                 std::uint64_t seed)
    : num_agents_(num_agents),
      policy_(std::move(policy)),
      rng_(seed),
      engine_(SquareGrid(resolution, policy_ ? policy_->bounding_side() : 1.0),
              radius, num_agents) {
  if (!policy_) throw std::invalid_argument("RandomTripModel: null policy");
  if (num_agents < 2) {
    throw std::invalid_argument("RandomTripModel: need at least 2 agents");
  }
  agents_.resize(num_agents_);
  initialize();
}

void RandomTripModel::initialize() {
  std::vector<Point2D>& positions = engine_.positions();
  for (std::size_t i = 0; i < num_agents_; ++i) {
    AgentState& agent = agents_[i];
    positions[i] = policy_->random_point(rng_);
    agent.trip = policy_->next_trip(positions[i], rng_);
    agent.pause_left = 0;
  }
  engine_.moved();
}

void RandomTripModel::step() {
  std::vector<Point2D>& positions = engine_.positions();
  for (std::size_t i = 0; i < num_agents_; ++i) {
    AgentState& agent = agents_[i];
    if (agent.pause_left > 0) {
      --agent.pause_left;
      continue;
    }
    Point2D pos = positions[i];
    double budget = agent.trip.speed;
    for (int leg = 0; leg < 16 && budget > 0.0; ++leg) {
      const double dist = euclidean_distance(pos, agent.trip.destination);
      if (dist <= budget) {
        budget -= dist;
        pos = agent.trip.destination;
        const std::uint64_t pause = agent.trip.pause_rounds;
        agent.trip = policy_->next_trip(pos, rng_);
        if (pause > 0) {
          // The dwell consumes whole rounds starting now; leftover motion
          // budget is forfeited (the agent has stopped).
          agent.pause_left = pause;
          break;
        }
      } else {
        const double frac = budget / dist;
        pos.x += (agent.trip.destination.x - pos.x) * frac;
        pos.y += (agent.trip.destination.y - pos.y) * frac;
        budget = 0.0;
      }
    }
    positions[i] = pos;
  }
  engine_.moved();
  advance_clock();
}

void RandomTripModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

std::uint64_t RandomTripModel::suggested_warmup(const TripPolicy& policy,
                                                double c) {
  // The stock policies validate speeds in their constructors, but the
  // interface does not promise it — guard the division like the waypoint
  // static does.
  if (policy.max_speed() <= 0.0 || policy.bounding_side() <= 0.0) {
    throw std::invalid_argument(
        "RandomTripModel::suggested_warmup: need max_speed > 0 and "
        "bounding_side > 0");
  }
  return static_cast<std::uint64_t>(
      std::ceil(c * policy.bounding_side() / policy.max_speed()));
}

std::uint64_t RandomTripModel::suggested_warmup(double c) const {
  return suggested_warmup(*policy_, c);
}

}  // namespace megflood
