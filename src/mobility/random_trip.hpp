#pragma once

// The random trip model of Le Boudec-Vojnovic [24], the general class the
// paper's Corollary 4 is stated for: nodes move over a bounded connected
// region R ⊂ R^2 along trips chosen by an arbitrary policy (destination,
// speed, and an optional pause at the waypoint).  RandomWaypointModel is
// the special case "uniform destination over a square, no pause"; this
// generalization exercises the rest of the class:
//   * pause times (the classic RWP variant with think times),
//   * non-square regions (disk),
//   * biased destination laws.
// Corollary 4 only cares about the positional density F_T (conditions
// (a)/(b)) and the mixing time, so these variants are the natural
// ablations of the paper's generality claim (bench_a4).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "mobility/proximity_engine.hpp"
#include "util/rng.hpp"

namespace megflood {

struct Trip {
  Point2D destination;
  double speed = 0.0;
  std::uint64_t pause_rounds = 0;  // dwell time at the waypoint on arrival
};

// A trip policy defines the mobility region and the trip law.  Policies
// must be deterministic functions of (from, rng) so models stay
// reproducible.
class TripPolicy {
 public:
  virtual ~TripPolicy() = default;

  // Side length of the bounding square [0, side]^2 containing the region.
  virtual double bounding_side() const = 0;

  // Whether p lies inside the mobility region.
  virtual bool contains(const Point2D& p) const = 0;

  // A point sampled from the region (used for initialization).
  virtual Point2D random_point(Rng& rng) const = 0;

  // The next trip from `from`; the destination must be inside the region.
  virtual Trip next_trip(const Point2D& from, Rng& rng) const = 0;

  // Largest speed the policy can emit (for warmup heuristics).
  virtual double max_speed() const = 0;
};

// Uniform-destination waypoint over the square with optional pauses:
// pause_rounds uniform in [pause_lo, pause_hi].
class SquareWaypointPolicy : public TripPolicy {
 public:
  SquareWaypointPolicy(double side, double v_min, double v_max,
                       std::uint64_t pause_lo = 0, std::uint64_t pause_hi = 0);

  double bounding_side() const override { return side_; }
  bool contains(const Point2D& p) const override;
  Point2D random_point(Rng& rng) const override;
  Trip next_trip(const Point2D& from, Rng& rng) const override;
  double max_speed() const override { return v_max_; }

 private:
  double side_, v_min_, v_max_;
  std::uint64_t pause_lo_, pause_hi_;
};

// Uniform-destination waypoint over the disk inscribed in the bounding
// square (center (side/2, side/2), radius side/2).
class DiskWaypointPolicy : public TripPolicy {
 public:
  DiskWaypointPolicy(double side, double v_min, double v_max);

  double bounding_side() const override { return side_; }
  bool contains(const Point2D& p) const override;
  Point2D random_point(Rng& rng) const override;
  Trip next_trip(const Point2D& from, Rng& rng) const override;
  double max_speed() const override { return v_max_; }

 private:
  double side_, v_min_, v_max_;
};

// Random direction model (Camp et al. [7], another classic member of the
// random trip class): instead of a waypoint, the node picks a uniform
// direction and a travel distance; legs that would exit the square are
// truncated at the border (a standard border-handling rule), where a new
// direction is drawn.  Its positional density is much flatter than the
// waypoint's (no center bias) — a useful contrast for Corollary 4's
// uniformity conditions.
class RandomDirectionPolicy : public TripPolicy {
 public:
  // Travel distance per leg uniform in [leg_lo, leg_hi].
  RandomDirectionPolicy(double side, double v_min, double v_max,
                        double leg_lo, double leg_hi);

  double bounding_side() const override { return side_; }
  bool contains(const Point2D& p) const override;
  Point2D random_point(Rng& rng) const override;
  Trip next_trip(const Point2D& from, Rng& rng) const override;
  double max_speed() const override { return v_max_; }

 private:
  double side_, v_min_, v_max_, leg_lo_, leg_hi_;
};

// The generic random trip dynamic graph: agents follow policy trips;
// two agents are connected iff their (grid-snapped) Euclidean distance is
// at most `radius`.
class RandomTripModel final : public DynamicGraph {
 public:
  RandomTripModel(std::size_t num_agents, std::shared_ptr<const TripPolicy>,
                  double radius, std::size_t resolution, std::uint64_t seed);

  std::size_t num_nodes() const override { return num_agents_; }
  const Snapshot& snapshot() const override { return engine_.snapshot(); }
  void step() override;
  void reset(std::uint64_t seed) override;

  const SquareGrid& grid() const noexcept { return engine_.grid(); }
  Point2D agent_position(NodeId agent) const { return engine_.position(agent); }
  CellId agent_cell(NodeId agent) const { return engine_.cell(agent); }
  bool agent_paused(NodeId agent) const {
    return agents_.at(agent).pause_left > 0;
  }

  // c * bounding_side / max_speed rounds, like the waypoint heuristic.
  // The static overload lets the scenario layer answer --warmup=auto
  // without constructing a model.
  static std::uint64_t suggested_warmup(const TripPolicy& policy,
                                        double c = 4.0);
  std::uint64_t suggested_warmup(double c = 4.0) const;

 private:
  // Motion state; the positions live in engine_.positions().
  struct AgentState {
    Trip trip;
    std::uint64_t pause_left = 0;
  };

  void initialize();

  std::size_t num_agents_;
  std::shared_ptr<const TripPolicy> policy_;
  Rng rng_;
  std::vector<AgentState> agents_;
  ProximitySnapshotEngine engine_;
};

}  // namespace megflood
