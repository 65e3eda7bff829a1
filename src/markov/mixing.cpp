#include "markov/mixing.hpp"

#include <cassert>
#include <stdexcept>

#include "util/histogram.hpp"

namespace megflood {

namespace {

std::size_t mixing_time_impl(const DenseChain& chain,
                             const std::vector<StateId>& starts, double eps,
                             std::size_t max_steps) {
  assert(eps > 0.0 && eps < 1.0);
  const auto pi = chain.stationary();
  const std::size_t n = chain.num_states();
  std::vector<std::vector<double>> mus;
  mus.reserve(starts.size());
  for (StateId s : starts) {
    std::vector<double> mu(n, 0.0);
    mu.at(s) = 1.0;
    mus.push_back(std::move(mu));
  }
  for (std::size_t t = 0; t <= max_steps; ++t) {
    double worst = 0.0;
    for (const auto& mu : mus) {
      const double d = total_variation(mu, pi);
      if (d > worst) worst = d;
    }
    if (worst <= eps) return t;
    for (auto& mu : mus) mu = chain.evolve(mu);
  }
  throw std::runtime_error("mixing_time: chain did not mix within max_steps");
}

}  // namespace

std::size_t mixing_time(const DenseChain& chain, double eps,
                        std::size_t max_steps) {
  std::vector<StateId> starts(chain.num_states());
  for (StateId s = 0; s < starts.size(); ++s) starts[s] = s;
  return mixing_time_impl(chain, starts, eps, max_steps);
}

std::size_t mixing_time_from_starts(const DenseChain& chain,
                                    const std::vector<StateId>& starts,
                                    double eps, std::size_t max_steps) {
  if (starts.empty()) {
    throw std::invalid_argument("mixing_time_from_starts: empty start set");
  }
  return mixing_time_impl(chain, starts, eps, max_steps);
}

}  // namespace megflood
