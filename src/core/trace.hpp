#pragma once

// Trace recording: capture the snapshot sequence of any dynamic graph so
// it can be replayed deterministically (ScriptedDynamicGraph), compared
// across protocols on the *same* sample path, or serialized for offline
// analysis.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "core/fixed_graphs.hpp"

namespace megflood {

// Records `steps + 1` snapshots: the current one and the next `steps`
// (the graph is advanced `steps` times).
std::vector<Snapshot> record_trace(DynamicGraph& graph, std::size_t steps);

// Plain-text serialization: line-oriented, one "t <step>" header per
// snapshot followed by "u v" edge lines.  Human-greppable and diffable.
void write_trace(std::ostream& os, const std::vector<Snapshot>& trace);

// Parses the write_trace format.  Throws std::invalid_argument on
// malformed input.
std::vector<Snapshot> read_trace(std::istream& is, std::size_t num_nodes);

}  // namespace megflood
