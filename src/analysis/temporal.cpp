#include "analysis/temporal.hpp"

#include <stdexcept>

#include "graph/algorithms.hpp"

namespace megflood {

namespace {

// Union of the snapshots trace[from, to) as a static graph.
Graph window_union(const std::vector<Snapshot>& trace, std::size_t from,
                   std::size_t to) {
  Graph g(trace[from].num_nodes());
  for (std::size_t t = from; t < to; ++t) {
    for (const auto& [u, v] : trace[t].edges()) {
      g.add_edge(u, v);  // duplicate-safe
    }
  }
  return g;
}

// Intersection (edges present in *every* snapshot of [from, to)).
Graph window_intersection(const std::vector<Snapshot>& trace,
                          std::size_t from, std::size_t to) {
  Graph g(trace[from].num_nodes());
  for (const auto& [u, v] : trace[from].edges()) {
    bool everywhere = true;
    for (std::size_t t = from + 1; t < to && everywhere; ++t) {
      everywhere = trace[t].has_edge(u, v);
    }
    if (everywhere) g.add_edge(u, v);
  }
  return g;
}

}  // namespace

std::size_t t_interval_connectivity(const std::vector<Snapshot>& trace) {
  if (trace.empty()) {
    throw std::invalid_argument("t_interval_connectivity: empty trace");
  }
  std::size_t best = 0;
  for (std::size_t window = 1; window <= trace.size(); ++window) {
    bool all_connected = true;
    for (std::size_t from = 0; from + window <= trace.size(); ++from) {
      if (!is_connected(window_intersection(trace, from, from + window))) {
        all_connected = false;
        break;
      }
    }
    if (!all_connected) break;
    best = window;
  }
  return best;
}

std::size_t smallest_connecting_window(const std::vector<Snapshot>& trace) {
  if (trace.empty()) {
    throw std::invalid_argument("smallest_connecting_window: empty trace");
  }
  for (std::size_t window = 1; window <= trace.size(); ++window) {
    bool all_connected = true;
    for (std::size_t from = 0; from + window <= trace.size(); ++from) {
      if (!is_connected(window_union(trace, from, from + window))) {
        all_connected = false;
        break;
      }
    }
    if (all_connected) return window;
  }
  return SIZE_MAX;
}

SnapshotConnectivity snapshot_connectivity(
    const std::vector<Snapshot>& trace) {
  if (trace.empty()) {
    throw std::invalid_argument("snapshot_connectivity: empty trace");
  }
  SnapshotConnectivity result;
  for (const Snapshot& snap : trace) {
    const std::size_t n = snap.num_nodes();
    Graph g(n);
    for (const auto& [u, v] : snap.edges()) g.add_edge(u, v);
    const Components comps = connected_components(g);
    if (comps.count <= 1) result.connected_fraction += 1.0;
    std::size_t isolated = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (g.degree(v) == 0) ++isolated;
    }
    result.mean_isolated_fraction +=
        static_cast<double>(isolated) / static_cast<double>(n);
    result.mean_largest_component_fraction +=
        static_cast<double>(comps.largest_size) / static_cast<double>(n);
  }
  const auto count = static_cast<double>(trace.size());
  result.connected_fraction /= count;
  result.mean_isolated_fraction /= count;
  result.mean_largest_component_fraction /= count;
  return result;
}

}  // namespace megflood
