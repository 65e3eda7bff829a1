#include "mobility/random_trip.hpp"

#include <cmath>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace megflood {

// ---------------------------------------------------------------------------
// TripPolicy: the square region and the waypoint trip
// ---------------------------------------------------------------------------

TripPolicy::TripPolicy(double side, double v_min, double v_max)
    : side_(side), v_min_(v_min), v_max_(v_max) {
  if (!(side > 0.0) || !(v_min > 0.0) || !(v_max >= v_min)) {
    throw std::invalid_argument(
        "TripPolicy: need side > 0 and 0 < v_min <= v_max");
  }
}

bool TripPolicy::contains(const Point2D& p) const {
  return p.x >= 0.0 && p.x <= side_ && p.y >= 0.0 && p.y <= side_;
}

Point2D TripPolicy::random_point(Rng& rng) const {
  return {rng.uniform(0.0, side_), rng.uniform(0.0, side_)};
}

Trip TripPolicy::next_trip(const Point2D& /*from*/, Rng& rng) const {
  Trip trip;
  trip.destination = random_point(rng);
  trip.speed = rng.uniform(v_min_, v_max_);
  return trip;
}

// ---------------------------------------------------------------------------
// GridWaypointPolicy
// ---------------------------------------------------------------------------

GridWaypointPolicy::GridWaypointPolicy(double side, std::size_t resolution,
                                       double v_min, double v_max)
    : TripPolicy(side, v_min, v_max), grid_(resolution, side) {}

Point2D GridWaypointPolicy::random_point(Rng& rng) const {
  return grid_.position(
      static_cast<CellId>(rng.uniform_int(grid_.num_points())));
}

// ---------------------------------------------------------------------------
// SquareWaypointPolicy
// ---------------------------------------------------------------------------

SquareWaypointPolicy::SquareWaypointPolicy(double side, double v_min,
                                           double v_max,
                                           std::uint64_t pause_lo,
                                           std::uint64_t pause_hi)
    : TripPolicy(side, v_min, v_max),
      pause_lo_(pause_lo),
      pause_hi_(pause_hi) {
  if (pause_hi < pause_lo) {
    throw std::invalid_argument("SquareWaypointPolicy: pause_hi < pause_lo");
  }
}

Trip SquareWaypointPolicy::next_trip(const Point2D& from, Rng& rng) const {
  Trip trip = TripPolicy::next_trip(from, rng);
  trip.pause_rounds =
      pause_lo_ +
      (pause_hi_ > pause_lo_ ? rng.uniform_int(pause_hi_ - pause_lo_ + 1)
                             : 0);
  return trip;
}

// ---------------------------------------------------------------------------
// DiskWaypointPolicy
// ---------------------------------------------------------------------------

bool DiskWaypointPolicy::contains(const Point2D& p) const {
  const double r = side_ / 2.0;
  const double dx = p.x - r, dy = p.y - r;
  return dx * dx + dy * dy <= r * r + 1e-12;
}

Point2D DiskWaypointPolicy::random_point(Rng& rng) const {
  // Rejection from the bounding square: acceptance ~ pi/4.
  for (;;) {
    const Point2D p = TripPolicy::random_point(rng);
    if (contains(p)) return p;
  }
}

// ---------------------------------------------------------------------------
// RandomDirectionPolicy
// ---------------------------------------------------------------------------

RandomDirectionPolicy::RandomDirectionPolicy(double side, double v_min,
                                             double v_max, double leg_lo,
                                             double leg_hi)
    : TripPolicy(side, v_min, v_max), leg_lo_(leg_lo), leg_hi_(leg_hi) {
  if (leg_lo <= 0.0 || leg_hi < leg_lo) {
    throw std::invalid_argument(
        "RandomDirectionPolicy: need 0 < leg_lo <= leg_hi");
  }
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
  dest_x_.resize(num_agents_);
  dest_y_.resize(num_agents_);
  speed_.resize(num_agents_);
  dwells_.resize(num_agents_);
  arrivals_.resize(num_agents_);
  initialize();
}

void RandomTripModel::set_trip(std::size_t agent, const Trip& trip) {
  dest_x_[agent] = trip.destination.x;
  dest_y_[agent] = trip.destination.y;
  speed_[agent] = trip.speed;
  dwells_[agent] = {trip.pause_rounds, 0, 0.0};
}

void RandomTripModel::initialize() {
  for (std::size_t i = 0; i < num_agents_; ++i) {
    const Point2D start = policy_->random_point(rng_);
    engine_.place(static_cast<std::uint32_t>(i), start);
    set_trip(i, policy_->next_trip(start, rng_));
  }
  engine_.moved();
}

void RandomTripModel::step() {
  double* const x = engine_.xs().data();
  double* const y = engine_.ys().data();
  const double* const dest_x = dest_x_.data();
  const double* const dest_y = dest_y_.data();
  const double* const speed = speed_.data();
  std::uint32_t* const listed = arrivals_.data();
  // First pass, no draws: an agent short of its destination moves the
  // fraction speed / dist of the way there (the first leg of the loop
  // below, bit for bit); the rest, pausing agents among them, are listed
  // as arrivals, ascending.  Two agents per SSE2 iteration, then the
  // scalar body for what is left.  A lane's dest - pos is the exact
  // negation of the scalar pos - dest, so its square is the same; a lane
  // that arrives keeps its position, and its quotient (inf / dist for a
  // paused agent, speed / 0 at the destination) is discarded.
  std::size_t arrivals = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 1 < num_agents_; i += 2) {
    const __m128d px = _mm_loadu_pd(x + i);
    const __m128d py = _mm_loadu_pd(y + i);
    const __m128d ex = _mm_sub_pd(_mm_loadu_pd(dest_x + i), px);
    const __m128d ey = _mm_sub_pd(_mm_loadu_pd(dest_y + i), py);
    const __m128d v = _mm_loadu_pd(speed + i);
    const __m128d dist =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(ex, ex), _mm_mul_pd(ey, ey)));
    const __m128d arrives = _mm_cmple_pd(dist, v);
    const __m128d frac = _mm_div_pd(v, dist);
    const auto keep_if_arrived = [arrives](__m128d pos, __m128d moved) {
      return _mm_or_pd(_mm_and_pd(arrives, pos),
                       _mm_andnot_pd(arrives, moved));
    };
    _mm_storeu_pd(x + i,
                  keep_if_arrived(px, _mm_add_pd(px, _mm_mul_pd(ex, frac))));
    _mm_storeu_pd(y + i,
                  keep_if_arrived(py, _mm_add_pd(py, _mm_mul_pd(ey, frac))));
    const int mask = _mm_movemask_pd(arrives);
    listed[arrivals] = static_cast<std::uint32_t>(i);
    arrivals += mask & 1;
    listed[arrivals] = static_cast<std::uint32_t>(i + 1);
    arrivals += mask >> 1;
  }
#endif
  for (; i < num_agents_; ++i) {
    const double dist =
        euclidean_distance({x[i], y[i]}, {dest_x[i], dest_y[i]});
    const bool arrives = dist <= speed[i];
    listed[arrivals] = static_cast<std::uint32_t>(i);
    arrivals += arrives;
    if (!arrives) {
      const double frac = speed[i] / dist;
      x[i] += (dest_x[i] - x[i]) * frac;
      y[i] += (dest_y[i] - y[i]) * frac;
    }
  }
  // Second pass, ascending, so the draws keep the one-loop order.
  for (std::size_t k = 0; k < arrivals; ++k) {
    const std::uint32_t a = listed[k];
    Dwell& dwell = dwells_[a];
    if (dwell.left > 0) {
      // A paused agent waits; its trip resumes the round after the last.
      if (--dwell.left == 0) speed_[a] = dwell.speed;
      continue;
    }
    Point2D pos{x[a], y[a]};
    double budget = speed_[a];
    // Travel `speed` distance this round, switching trips at waypoints so
    // agents never stall (leftover budget carries into the new leg).
    for (int leg = 0; leg < 16 && budget > 0.0; ++leg) {
      const Point2D destination{dest_x_[a], dest_y_[a]};
      const double dist = euclidean_distance(pos, destination);
      if (dist <= budget) {
        budget -= dist;
        pos = destination;
        const std::uint64_t pause = dwell.on_arrival;
        set_trip(a, policy_->next_trip(pos, rng_));
        if (pause > 0) {
          // The dwell consumes whole rounds starting now; leftover motion
          // budget is forfeited (the agent has stopped).
          dwell.left = pause;
          dwell.speed = speed_[a];
          speed_[a] = kPaused;
          break;
        }
      } else {
        const double frac = budget / dist;
        pos.x += (destination.x - pos.x) * frac;
        pos.y += (destination.y - pos.y) * frac;
        budget = 0.0;
      }
    }
    x[a] = pos.x;
    y[a] = pos.y;
  }
  engine_.moved();
  advance_clock();
}

void RandomTripModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

void RandomTripModel::collapse_to(const Point2D& point) {
  for (std::size_t i = 0; i < num_agents_; ++i) {
    engine_.place(static_cast<std::uint32_t>(i), point);
    set_trip(i, policy_->next_trip(point, rng_));
  }
  engine_.moved();
}

std::uint64_t RandomTripModel::suggested_warmup(const TripPolicy& policy,
                                                double c) {
  return static_cast<std::uint64_t>(
      std::ceil(c * policy.bounding_side() / policy.max_speed()));
}

std::unique_ptr<RandomTripModel> make_random_waypoint(
    std::size_t num_agents, const WaypointParams& params, std::uint64_t seed) {
  return std::make_unique<RandomTripModel>(
      num_agents,
      std::make_shared<GridWaypointPolicy>(params.side_length,
                                           params.resolution, params.v_min,
                                           params.v_max),
      params.radius, params.resolution, seed);
}

}  // namespace megflood
