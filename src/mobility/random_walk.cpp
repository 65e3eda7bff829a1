#include "mobility/random_walk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace megflood {

std::vector<double> stationary_cdf(
    const std::vector<std::vector<VertexId>>& move_balls) {
  // pi(x) ∝ |N+(x)| with N+(x) = ball(x) ∪ {x}: the move graph (with self
  // loops) is symmetric, so this degree-proportional measure is stationary.
  double total = 0.0;
  for (const auto& ball : move_balls) {
    total += static_cast<double>(ball.size() + 1);
  }
  std::vector<double> cdf(move_balls.size());
  double acc = 0.0;
  for (std::size_t x = 0; x < move_balls.size(); ++x) {
    acc += static_cast<double>(move_balls[x].size() + 1) / total;
    cdf[x] = acc;
  }
  return cdf;
}

VertexId draw_point(const std::vector<double>& cdf, Rng& rng) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
  return static_cast<VertexId>(
      std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                            cdf.size() - 1));
}

RandomWalkModel::RandomWalkModel(std::shared_ptr<const Graph> mobility_graph,
                                 std::size_t num_agents,
                                 RandomWalkParams params, std::uint64_t seed)
    : graph_(std::move(mobility_graph)),
      num_agents_(num_agents),
      params_(params),
      rng_(seed) {
  if (!graph_) throw std::invalid_argument("RandomWalkModel: null graph");
  if (num_agents < 2) {
    throw std::invalid_argument("RandomWalkModel: need at least 2 agents");
  }
  if (params_.move_radius == 0) {
    throw std::invalid_argument("RandomWalkModel: move radius must be >= 1");
  }
  if (params_.mobile_fraction < 0.0 || params_.mobile_fraction > 1.0) {
    throw std::invalid_argument(
        "RandomWalkModel: mobile fraction must be in [0,1]");
  }
  num_mobile_ = static_cast<std::size_t>(
      std::ceil(params_.mobile_fraction * static_cast<double>(num_agents)));
  move_balls_ = all_balls(*graph_, params_.move_radius);
  if (params_.connect_radius > 0) {
    connect_balls_ = all_balls(*graph_, params_.connect_radius);
  }
  stationary_cdf_ = stationary_cdf(move_balls_);
  positions_.resize(num_agents_);
  snapshot_.reset(num_agents_);
  initialize();
}

void RandomWalkModel::initialize() {
  for (auto& pos : positions_) pos = draw_point(stationary_cdf_, rng_);
  rebuild_snapshot();
}

void RandomWalkModel::rebuild_snapshot() {
  const auto point_of = [this](std::uint32_t a) { return positions_[a]; };
  if (params_.connect_radius == 0) {  // no forward neighbours to look up
    colocation_.build(snapshot_, graph_->num_vertices(), point_of);
    return;
  }
  colocation_.build(snapshot_, graph_->num_vertices(), point_of,
                    [this](VertexId point, auto&& visit) {
                      for (const VertexId other : connect_balls_[point]) {
                        if (other > point) visit(other);
                      }
                    });
}

void RandomWalkModel::step() {
  for (NodeId agent = 0; agent < num_mobile_; ++agent) {
    auto& pos = positions_[agent];
    const auto& ball = move_balls_[pos];
    const std::uint64_t choice = rng_.uniform_int(ball.size() + 1);
    if (choice < ball.size()) pos = ball[choice];
    // else: stay put (the self-loop option)
  }
  // Agents in [num_mobile_, n) are static and never move.
  rebuild_snapshot();
  advance_clock();
}

void RandomWalkModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

void RandomWalkModel::set_all_positions(VertexId point) {
  if (point >= graph_->num_vertices()) {
    throw std::out_of_range("set_all_positions: point out of range");
  }
  for (auto& pos : positions_) pos = point;
  rebuild_snapshot();
}

}  // namespace megflood
