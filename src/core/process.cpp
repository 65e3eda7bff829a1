#include "core/process.hpp"

#include <stdexcept>

namespace megflood {

ProcessResult run_process(DynamicGraph& graph, SpreadingProcess& process,
                          NodeId source, std::uint64_t max_rounds,
                          std::uint64_t seed) {
  return process.run(graph, source, max_rounds, seed);
}

ProcessResult SpreadingProcess::run(DynamicGraph& graph, NodeId source,
                                    std::uint64_t max_rounds,
                                    std::uint64_t seed) {
  SpreadingProcess& process = *this;
  const std::size_t n = graph.num_nodes();
  if (source >= n) throw std::out_of_range("run_process: bad source");

  Rng rng(seed);
  ProcessResult result;
  std::vector<char> informed(n, 0);
  informed[source] = 1;
  std::size_t count = 1;
  process.begin_trial(n, source);
  result.flood.informed_counts.push_back(count);
  if (count == n) {  // n == 1
    result.flood.completed = true;
    process.metrics(result.metrics);
    return result;
  }

  std::vector<NodeId> newly;
  for (std::uint64_t t = 0; t < max_rounds; ++t) {
    check_deadline();
    // Same clocking as flood(): step between rounds, never after the last.
    if (t > 0) graph.step();
    newly.clear();
    const Snapshot& snapshot = graph.snapshot();
    require_snapshot_nodes(snapshot, n);
    process.round(snapshot, informed, newly, rng);
    for (NodeId v : newly) informed[v] = 1;
    count += newly.size();
    result.flood.informed_counts.push_back(count);
    if (count == n) {
      result.flood.completed = true;
      result.flood.rounds = t + 1;
      process.metrics(result.metrics);
      return result;
    }
    if (process.exhausted()) break;
  }
  result.flood.completed = false;
  result.flood.rounds = max_rounds;
  process.metrics(result.metrics);
  return result;
}

void FloodingProcess::begin_trial(std::size_t /*num_nodes*/,
                                  NodeId /*source*/) {
  informed_count_ = 1;
  transmissions_ = 0;
}

void FloodingProcess::round(const Snapshot& snapshot,
                            std::vector<char>& informed,
                            std::vector<NodeId>& newly, Rng& /*rng*/) {
  transmissions_ += informed_count_;
  // flood_round marks with 2, fills `newly`, and commits the marks itself;
  // the driver's commit pass is then a no-op (idempotent).
  informed_count_ += flood_round(snapshot, informed, newly);
}

void FloodingProcess::metrics(MetricsBag& out) const {
  out["transmissions"] = static_cast<double>(transmissions_);
}

ProcessResult FloodingProcess::run(DynamicGraph& graph, NodeId source,
                                   std::uint64_t max_rounds,
                                   std::uint64_t /*seed*/) {
  // Flooding is deterministic, so the word-parallel kernel is exact; the
  // transmissions metric is reconstructed from the trajectory with the
  // same accounting the generic engine uses (|I_t| sends per executed
  // round t, one executed round per informed_counts entry after the
  // first).
  begin_trial(graph.num_nodes(), source);
  ProcessResult result;
  result.flood = flood(graph, source, max_rounds);
  transmissions_ = 0;
  for (std::size_t t = 0; t + 1 < result.flood.informed_counts.size(); ++t) {
    transmissions_ += result.flood.informed_counts[t];
  }
  metrics(result.metrics);
  return result;
}

}  // namespace megflood
