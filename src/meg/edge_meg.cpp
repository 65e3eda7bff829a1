#include "meg/edge_meg.hpp"

#include <algorithm>
#include <cassert>
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
  on_.clear();
  switch (init_) {
    case EdgeMegInit::kAllOff:
      break;
    case EdgeMegInit::kAllOn:
      on_.reserve(total_pairs_);
      for (std::uint32_t i = 0; i + 1 < n_; ++i) {
        for (std::uint32_t j = i + 1; j < n_; ++j) on_.push_back(pack_pair(i, j));
      }
      break;
    case EdgeMegInit::kStationary: {
      // Geometric skipping over the pair enumeration; indices arrive
      // strictly increasing, so on_ is sorted by construction.
      PairRowCursor cursor(n_);
      geometric_select(rng_, total_pairs_, chain_.stationary_on(),
                       [&](std::uint64_t e) { on_.push_back(cursor.key(e)); });
      break;
    }
  }
  rebuild_snapshot();
}

void TwoStateEdgeMEG::rebuild_snapshot() {
  snapshot_.clear();
  for (std::uint64_t key : on_) {
    snapshot_.add_edge(pair_key_i(key), pair_key_j(key));
  }
}

void TwoStateEdgeMEG::step() {
  const double p = chain_.birth_rate();
  const double q = chain_.death_rate();

  // Deaths: each edge that is on at the start of the step dies with
  // probability q.  The on-set is walked in sorted order (it is stored
  // sorted), so the RNG consumption sequence is a pure function of the
  // seed and the state; survivors are compacted in place (stable, hence
  // still sorted) and the dead collected so births below can be decided
  // against the pre-step state (a pair that dies this step was on, hence
  // cannot also be born this step).
  killed_.clear();
  if (q > 0.0) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < on_.size(); ++r) {
      if (rng_.bernoulli(q)) {
        killed_.push_back(on_[r]);
      } else {
        on_[w++] = on_[r];
      }
    }
    on_.resize(w);
  }

  // Births: mark every pair with probability p via geometric skipping over
  // the linear pair enumeration.  A mark on a surviving on-pair is a no-op
  // (dropped during the merge); a mark on a killed pair is discarded, which
  // restricts births to exactly the pre-step off edges.
  if (p > 0.0) {
    born_.clear();
    PairRowCursor cursor(n_);
    geometric_select(rng_, total_pairs_, p, [&](std::uint64_t e) {
      const std::uint64_t key = cursor.key(e);
      if (!std::binary_search(killed_.begin(), killed_.end(), key)) {
        born_.push_back(key);
      }
    });
    if (!born_.empty()) {
      // Sorted-merge union of survivors and births (both ascending).
      merged_.clear();
      merged_.reserve(on_.size() + born_.size());
      std::set_union(on_.begin(), on_.end(), born_.begin(), born_.end(),
                     std::back_inserter(merged_));
      std::swap(on_, merged_);
    }
  }

  rebuild_snapshot();
  advance_clock();
}

void TwoStateEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

}  // namespace megflood
