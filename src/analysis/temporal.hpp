#pragma once

// Temporal-structure analysis of dynamic-graph traces, connecting this
// library to the worst-case dynamic network literature the paper cites:
// Kuhn-Lynch-Oshman's T-interval connectivity ([21]: every T consecutive
// snapshots share a stable connected spanning subgraph) and the dual
// union-window connectivity (every length-W window's *union* graph is
// connected — a necessary regime for flooding to progress steadily).
//
// These are diagnostics: the paper's MEG results deliberately avoid any
// per-window connectivity assumption (single snapshots may be wildly
// disconnected), and bench_a6 quantifies exactly that — sparse edge-MEGs
// flood fast even though their snapshots are never connected and only
// long unions connect.
//
// Only the three measures are public: the window union and intersection
// graphs are built inside the two window measures.

#include <cstddef>
#include <vector>

#include "core/snapshot.hpp"

namespace megflood {

// Largest T >= 1 such that every window of T consecutive snapshots has a
// connected intersection graph ([21]'s T-interval connectivity); 0 if
// even single snapshots (T = 1) are sometimes disconnected.
std::size_t t_interval_connectivity(const std::vector<Snapshot>& trace);

// Smallest W >= 1 such that the union of every window of W consecutive
// snapshots is connected; SIZE_MAX if even the full union never connects.
std::size_t smallest_connecting_window(const std::vector<Snapshot>& trace);

// Fraction of snapshots that are connected, and mean fraction of isolated
// nodes per snapshot — the paper's "sparse and disconnected topologies"
// claim, quantified.
struct SnapshotConnectivity {
  double connected_fraction = 0.0;
  double mean_isolated_fraction = 0.0;
  double mean_largest_component_fraction = 0.0;
};
SnapshotConnectivity snapshot_connectivity(const std::vector<Snapshot>& trace);

}  // namespace megflood
