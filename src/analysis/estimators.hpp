#pragma once

// Empirical estimator for the quantities Theorem 3's hypothesis is stated
// over: the probability P_NM that a fixed pair is connected, the
// two-neighbor probability P_NM2 and eta = P_NM2 / P_NM^2.  It measures
// them on the very models the experiments run, instead of assuming them.

#include <cstdint>

#include "core/dynamic_graph.hpp"

namespace megflood {

struct PairwiseEstimate {
  double p_nm = 0.0;   // P(fixed pair connected)
  double p_nm2 = 0.0;  // P(two fixed nodes both connected to a third)
  double eta = 0.0;    // p_nm2 / p_nm^2
  std::size_t snapshots = 0;
};

// Estimates P_NM and P_NM2 over `samples` snapshots, `stride` steps apart
// (stride should be at least the model's mixing time so snapshots
// decorrelate), by averaging over `probes` random (i, j, k) triples per
// snapshot.
PairwiseEstimate estimate_pairwise(DynamicGraph& graph, std::size_t samples,
                                   std::size_t stride, std::size_t probes = 256,
                                   std::uint64_t seed = 7);

}  // namespace megflood
