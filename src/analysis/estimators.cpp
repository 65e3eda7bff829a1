#include "analysis/estimators.hpp"

#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace megflood {

namespace {

void advance(DynamicGraph& graph, std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s) graph.step();
}

// Choose `count` distinct node ids.
std::vector<NodeId> distinct_nodes(Rng& rng, std::size_t n, std::size_t count) {
  std::vector<char> taken(n, 0);
  std::vector<NodeId> result;
  result.reserve(count);
  while (result.size() < count) {
    const auto v = static_cast<NodeId>(rng.uniform_int(n));
    if (!taken[v]) {
      taken[v] = 1;
      result.push_back(v);
    }
  }
  return result;
}

}  // namespace

PairwiseEstimate estimate_pairwise(DynamicGraph& graph, std::size_t samples,
                                   std::size_t stride, std::size_t probes,
                                   std::uint64_t seed) {
  if (samples == 0 || probes == 0) {
    throw std::invalid_argument("estimate_pairwise: samples/probes == 0");
  }
  const std::size_t n = graph.num_nodes();
  if (n < 3) throw std::invalid_argument("estimate_pairwise: need n >= 3");
  Rng rng(seed);
  std::uint64_t pair_hits = 0, triple_hits = 0, total = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    if (s > 0) advance(graph, stride);
    const Snapshot& snap = graph.snapshot();
    for (std::size_t p = 0; p < probes; ++p) {
      const auto ids = distinct_nodes(rng, n, 3);
      const NodeId i = ids[0], j = ids[1], k = ids[2];
      // P_NM probe: are i and j connected?
      if (snap.has_edge(i, j)) ++pair_hits;
      // P_NM2 probe: are i and j both connected to k?
      if (snap.has_edge(i, k) && snap.has_edge(j, k)) ++triple_hits;
      ++total;
    }
  }
  PairwiseEstimate est;
  est.snapshots = samples;
  est.p_nm = static_cast<double>(pair_hits) / static_cast<double>(total);
  est.p_nm2 = static_cast<double>(triple_hits) / static_cast<double>(total);
  est.eta = est.p_nm > 0.0 ? est.p_nm2 / (est.p_nm * est.p_nm) : 0.0;
  return est;
}

}  // namespace megflood
