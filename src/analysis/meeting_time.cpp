#include "analysis/meeting_time.hpp"

#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/rng.hpp"

namespace megflood {

MeetingTimeResult measure_meeting_time(const Graph& mobility_graph,
                                       RandomWalkParams params,
                                       std::size_t trials,
                                       std::uint64_t max_steps,
                                       std::uint64_t seed) {
  const auto balls = all_balls(mobility_graph, params.move_radius);
  const std::vector<double> cdf = stationary_cdf(balls);
  Rng rng(seed);
  auto walk_step = [&](VertexId pos) {
    const auto& ball = balls[pos];
    const std::uint64_t choice = rng.uniform_int(ball.size() + 1);
    return choice < ball.size() ? ball[choice] : pos;
  };

  MeetingTimeResult result;
  std::vector<double> samples;
  samples.reserve(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    VertexId a = draw_point(cdf, rng);
    VertexId b = draw_point(cdf, rng);
    bool met = a == b;
    std::uint64_t t = 0;
    while (!met && t < max_steps) {
      a = walk_step(a);
      b = walk_step(b);
      ++t;
      met = a == b;
    }
    if (met) {
      samples.push_back(static_cast<double>(t));
    } else {
      ++result.timed_out;
    }
  }
  result.steps = summarize(std::move(samples));
  return result;
}

}  // namespace megflood
