#include "meg/edge_meg.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "meg/pair_index.hpp"

namespace megflood {

TwoStateEdgeMEG::TwoStateEdgeMEG(std::size_t num_nodes, TwoStateParams params,
                                 std::uint64_t seed, EdgeMegInit init)
    : n_(num_nodes),
      chain_(params),
      init_(init),
      rng_(seed),
      total_pairs_(pair_count(num_nodes)) {
  if (num_nodes < 2) {
    throw std::invalid_argument("TwoStateEdgeMEG: need at least 2 nodes");
  }
  snapshot_.reset(n_);
  initialize();
}

void TwoStateEdgeMEG::initialize() {
  on_.keys.clear();
  switch (init_) {
    case EdgeMegInit::kAllOff:
      break;
    case EdgeMegInit::kAllOn:
      on_.born.reserve(total_pairs_ + 1);  // + the merge's closing key
      on_.born.resize(total_pairs_);
      std::iota(on_.born.begin(), on_.born.end(), std::uint64_t{0});
      break;
    case EdgeMegInit::kStationary: {
      // One allocation for the marks: their mean, four standard
      // deviations and the merge's closing key.
      const double p = chain_.stationary_on();
      const double mean = static_cast<double>(total_pairs_) * p;
      reserve_headroom(on_.born, static_cast<std::uint64_t>(
                                     mean + 4.0 * std::sqrt(mean) + 1.0));
      draw_marks(p);
      break;
    }
  }
  indices_to_keys(n_, on_.born);
  on_.merge(n_, snapshot_);
}

void TwoStateEdgeMEG::draw_marks(double p) {
  // A local copy of the stream: the stores into the marks cannot alias
  // it, so its state stays in registers across the loop.
  Rng rng = rng_;
  geometric_select(rng, total_pairs_, p,
                   [this](std::uint64_t e) { on_.born.push_back(e); });
  rng_ = rng;
}

void TwoStateEdgeMEG::step() {
  // Deaths: each edge that is on at the start of the step dies with
  // probability q.  The on-set is walked in sorted order (it is stored
  // sorted), so the RNG consumption sequence is a pure function of the
  // seed and the state.  One branch-free pass stores every key as a death
  // and advances past it when the draw says it dies; the set itself is
  // left for the merge below.
  const std::size_t count = on_.keys.size();
  reserve_headroom(on_.died, count + 1);  // + the merge's closing key
  on_.died.resize(count);
  std::size_t dead = 0;
  if (const double q = chain_.death_rate(); q > 0.0) {
    Rng rng = rng_;  // see draw_marks
    const std::uint64_t* on = on_.keys.data();
    std::uint64_t* died = on_.died.data();
    for (std::size_t r = 0; r < count; ++r) {
      const bool dies = rng.bernoulli(q);
      died[dead] = on[r];
      dead += dies;
    }
    rng_ = rng;
  }
  on_.died.resize(dead);

  // Births: mark every pair with probability p via geometric skipping over
  // the linear pair enumeration.  The merge keeps a mark on a surviving
  // on-pair once and drops one on a dying pair: births are decided against
  // the pre-step state, so they come from exactly the pre-step off edges.
  draw_marks(chain_.birth_rate());
  indices_to_keys(n_, on_.born);
  on_.merge(n_, snapshot_);
  advance_clock();
}

void TwoStateEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

}  // namespace megflood
