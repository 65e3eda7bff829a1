#pragma once

// The random trip model of Le Boudec-Vojnovic [24], the class the paper's
// Corollary 4 is stated for: nodes move over a bounded connected region
// R ⊂ R^2 along trips chosen by a policy (destination, speed, and an
// optional pause at the waypoint).  Two agents are connected iff their
// grid-snapped Euclidean distance is at most the transmission radius r.
// One engine, RandomTripModel, runs every member of the class; a policy
// supplies the trip law:
//   * GridWaypointPolicy, the paper's random waypoint (Section 4.1),
//     built from WaypointParams by make_random_waypoint();
//   * SquareWaypointPolicy, the waypoint with pause times (think times);
//   * DiskWaypointPolicy, a non-square region;
//   * RandomDirectionPolicy, trips drawn from the current position.
// Corollary 4 only cares about the positional density F_T (conditions
// (a)/(b)) and the mixing time, so the variants are the natural
// ablations of the paper's generality claim (bench_a4).

#include <cstdint>
#include <limits>
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
  double speed = 0.0;              // distance per round, finite
  std::uint64_t pause_rounds = 0;  // dwell time at the waypoint on arrival
};

// A trip policy defines the mobility region and the trip law.  Every
// policy moves inside the bounding square [0, side]^2 at speeds in
// [v_min, v_max]; the region defaults to that square and the trip to the
// waypoint's (destination random_point(), speed uniform, no pause).
// Policies must be deterministic functions of (from, rng) so models stay
// reproducible.
class TripPolicy {
 public:
  // Throws std::invalid_argument unless side > 0 and 0 < v_min <= v_max.
  TripPolicy(double side, double v_min, double v_max);
  virtual ~TripPolicy() = default;

  double bounding_side() const noexcept { return side_; }

  // Largest speed the policy can emit (for warmup heuristics).
  double max_speed() const noexcept { return v_max_; }

  // Whether p lies inside the mobility region.
  virtual bool contains(const Point2D& p) const;

  // A point sampled from the region (used for initialization).
  virtual Point2D random_point(Rng& rng) const;

  // The next trip from `from`; the destination must be inside the region.
  virtual Trip next_trip(const Point2D& from, Rng& rng) const;

 protected:
  const double side_, v_min_, v_max_;
};

// The paper's random waypoint over the square (Section 4.1): start points
// and destinations uniform over the m x m grid points, speed uniform in
// [v_min, v_max], no pause.
//
// Discretization follows the paper: the square of side L is approximated
// by an m x m grid; an agent's *connectivity* position is its nearest grid
// point while its motion state stays continuous (equivalent to a
// sufficiently refined node-MEG state (destination, path point, speed) —
// footnote 3 says the resolution does not affect the flooding bound, and
// experiment E5 verifies that by sweeping m).
//
// The start (uniform position, fresh trip) is *not* the stationary
// regime; callers should warm up ~Theta(L / v_max) steps
// (TrialConfig::warmup_steps, suggested_warmup) before measuring, as the
// experiments do.
class GridWaypointPolicy final : public TripPolicy {
 public:
  GridWaypointPolicy(double side, std::size_t resolution, double v_min,
                     double v_max);

  Point2D random_point(Rng& rng) const override;

 private:
  SquareGrid grid_;
};

// Uniform-destination waypoint over the square with optional pauses:
// pause_rounds uniform in [pause_lo, pause_hi].
class SquareWaypointPolicy final : public TripPolicy {
 public:
  SquareWaypointPolicy(double side, double v_min, double v_max,
                       std::uint64_t pause_lo = 0, std::uint64_t pause_hi = 0);

  Trip next_trip(const Point2D& from, Rng& rng) const override;

 private:
  std::uint64_t pause_lo_, pause_hi_;
};

// Uniform-destination waypoint over the disk inscribed in the bounding
// square (center (side/2, side/2), radius side/2).
class DiskWaypointPolicy final : public TripPolicy {
 public:
  using TripPolicy::TripPolicy;

  bool contains(const Point2D& p) const override;
  Point2D random_point(Rng& rng) const override;
};

// Random direction model (Camp et al. [7], another classic member of the
// random trip class): instead of a waypoint, the node picks a uniform
// direction and a travel distance; legs that would exit the square are
// truncated at the border (a standard border-handling rule), where a new
// direction is drawn.  Its positional density is much flatter than the
// waypoint's (no center bias) — a useful contrast for Corollary 4's
// uniformity conditions.
class RandomDirectionPolicy final : public TripPolicy {
 public:
  // Travel distance per leg uniform in [leg_lo, leg_hi].
  RandomDirectionPolicy(double side, double v_min, double v_max,
                        double leg_lo, double leg_hi);

  Trip next_trip(const Point2D& from, Rng& rng) const override;

 private:
  double leg_lo_, leg_hi_;
};

// The random trip dynamic graph: agents follow policy trips over an
// m x m connectivity grid (`resolution`) of the policy's bounding square.
//
// Layout: the motion state is structure of arrays (positions in the
// engine's xs() and ys(), the course in dest_x_, dest_y_ and speed_), so
// step()'s first, draw-free pass moves two agents per iteration in SSE2
// lanes: one packed sqrt and one packed divide per pair, where the scalar
// loop ran one of each per agent (a 4096-agent step's dominant cost).
// Each lane does the scalar body's operations in the same order, each
// correctly rounded, so every position and every arrival list is the
// same, bit for bit, as one agent at a time; an odd last agent, or every
// agent on a target without SSE2, runs the scalar body.  SSE2 is in
// every x86-64 target, and wider lanes buy nothing: the divider's
// throughput, not the lane count, bounds the pass, and on a 4-CPU Xeon
// (AVX-512) 4096 sqrt + divide pairs took ~18.5 µs scalar, ~9 µs in
// SSE2 and ~9 µs in AVX.  So there is no AVX path and no dispatch.
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
  bool agent_paused(NodeId agent) const { return dwells_.at(agent).left > 0; }

  // Rough warm-up length to near-stationarity: c * bounding_side /
  // max_speed rounds (T_mix of the waypoint chain is Theta(L / v_max),
  // refs [1, 29]).  The static overload lets the scenario layer answer
  // --warmup=auto without constructing a model.
  static std::uint64_t suggested_warmup(const TripPolicy& policy,
                                        double c = 4.0);
  std::uint64_t suggested_warmup(double c = 4.0) const {
    return suggested_warmup(*policy_, c);
  }

  // Worst-case start for mixing studies: place every agent at `point`
  // (fresh random trips are drawn so the process stays well defined).
  void collapse_to(const Point2D& point);

 private:
  // Motion state, as structure of arrays like the positions (which live
  // in engine_.xs() and engine_.ys()).  The course (dest_x_, dest_y_,
  // speed_) is all that the first pass of step() reads.  A pausing
  // agent's course has speed kPaused, so that pass lists it with the
  // arrivals and the second pass counts its dwell down; the pause state
  // sits apart.
  struct Dwell {
    std::uint64_t on_arrival = 0;  // the current trip's pause_rounds
    std::uint64_t left = 0;        // rounds still to wait
    double speed = 0.0;            // the current trip's speed while waiting
  };
  static constexpr double kPaused = std::numeric_limits<double>::infinity();

  void initialize();
  void set_trip(std::size_t agent, const Trip& trip);

  std::size_t num_agents_;
  std::shared_ptr<const TripPolicy> policy_;
  Rng rng_;
  std::vector<double> dest_x_, dest_y_, speed_;
  std::vector<Dwell> dwells_;
  std::vector<std::uint32_t> arrivals_;  // step() scratch
  ProximitySnapshotEngine engine_;
};

// The paper's random waypoint in the parameters its experiments sweep.
struct WaypointParams {
  double side_length = 1.0;  // L
  double v_min = 0.01;
  double v_max = 0.02;       // paper assumes v_max = Theta(v_min)
  double radius = 0.1;       // transmission radius r
  std::size_t resolution = 64;  // grid m (connectivity discretization)
};

// The random waypoint model: a RandomTripModel on a GridWaypointPolicy.
std::unique_ptr<RandomTripModel> make_random_waypoint(
    std::size_t num_agents, const WaypointParams& params, std::uint64_t seed);

}  // namespace megflood
