#pragma once

// The random waypoint model over a square (paper Section 4.1): each of the
// n agents repeatedly (i) picks a destination uniformly at random over the
// square, (ii) picks a speed uniformly in [v_min, v_max], and (iii) travels
// in a straight line to the destination at that speed.  Two agents are
// connected iff their Euclidean distance is at most the transmission
// radius r.
//
// Discretization follows the paper: the square of side L is approximated
// by an m x m grid; an agent's *connectivity* position is its nearest grid
// point while its motion state stays continuous (equivalent to a
// sufficiently refined node-MEG state (destination, path point, speed) —
// footnote 3 says the resolution does not affect the flooding bound, and
// experiment E5 verifies that by sweeping m).
//
// Initialization is uniform-position/fresh-trip, which is *not* the
// stationary regime; callers should warm up ~Theta(L / v_max) steps
// (TrialConfig::warmup_steps) before measuring, as the experiments do.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "mobility/proximity_engine.hpp"
#include "util/rng.hpp"

namespace megflood {

struct WaypointParams {
  double side_length = 1.0;  // L
  double v_min = 0.01;
  double v_max = 0.02;       // paper assumes v_max = Theta(v_min)
  double radius = 0.1;       // transmission radius r
  std::size_t resolution = 64;  // grid m (connectivity discretization)
};

class RandomWaypointModel final : public DynamicGraph {
 public:
  RandomWaypointModel(std::size_t num_agents, WaypointParams params,
                      std::uint64_t seed);

  std::size_t num_nodes() const override { return num_agents_; }
  const Snapshot& snapshot() const override { return engine_.snapshot(); }
  void step() override;
  void reset(std::uint64_t seed) override;

  const SquareGrid& grid() const noexcept { return engine_.grid(); }
  const WaypointParams& params() const noexcept { return params_; }

  Point2D agent_position(NodeId agent) const { return engine_.position(agent); }
  CellId agent_cell(NodeId agent) const { return engine_.cell(agent); }

  // Rough warm-up length to near-stationarity: c * L / v_max steps
  // (T_mix of the waypoint chain is Theta(L / v_max), refs [1, 29]).
  // The static overload lets the scenario layer answer --warmup=auto
  // without constructing a model.
  static std::uint64_t suggested_warmup(const WaypointParams& params,
                                        double c = 4.0);
  std::uint64_t suggested_warmup(double c = 4.0) const;

  // Worst-case start for mixing studies: place every agent at `point`
  // (fresh random trips are drawn so the process stays well defined).
  void collapse_to(const Point2D& point);

 private:
  // Motion state; the positions live in engine_.positions().
  struct AgentState {
    Point2D dest;
    double speed = 0.0;
  };

  void initialize();
  void new_trip(AgentState& agent);

  std::size_t num_agents_;
  WaypointParams params_;
  Rng rng_;
  std::vector<AgentState> agents_;
  std::vector<std::uint32_t> arrivals_;  // step() scratch
  ProximitySnapshotEngine engine_;
};

}  // namespace megflood
