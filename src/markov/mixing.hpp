#pragma once

// Exact mixing-time computation for explicit chains.  The paper's epoch
// length M is the mixing time of the underlying chain (Theorem 3 uses
// M = T_mix * log(2n / P_NM^2)); every experiment needs T_mix as an input
// to the bound formulas, so we compute it exactly where feasible.

#include <cstddef>
#include <vector>

#include "markov/chain.hpp"

namespace megflood {

// d(t) = max over start states s of TV( P^t(s, .), pi ), evaluated by
// evolving one distribution per start state.
// T_mix(eps) = min { t : d(t) <= eps }.  The standard convention is
// eps = 1/4; Theorem 3's epoch construction uses the log-boosted version.
// Throws if not mixed within `max_steps`.
std::size_t mixing_time(const DenseChain& chain, double eps = 0.25,
                        std::size_t max_steps = 1'000'000);

// Mixing time from a restricted set of start states (distribution-evolution
// cost is O(|starts| * T * S^2); for structured chains extremal starts give
// the exact worst case and this keeps large chains tractable).
std::size_t mixing_time_from_starts(const DenseChain& chain,
                                    const std::vector<StateId>& starts,
                                    double eps = 0.25,
                                    std::size_t max_steps = 1'000'000);

}  // namespace megflood
