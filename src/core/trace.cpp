#include "core/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace megflood {

std::vector<Snapshot> record_trace(DynamicGraph& graph, std::size_t steps) {
  std::vector<Snapshot> trace;
  trace.reserve(steps + 1);
  trace.push_back(graph.snapshot());
  for (std::size_t t = 0; t < steps; ++t) {
    graph.step();
    trace.push_back(graph.snapshot());
  }
  return trace;
}

void write_trace(std::ostream& os, const std::vector<Snapshot>& trace) {
  for (std::size_t t = 0; t < trace.size(); ++t) {
    os << "t " << t << "\n";
    for (const auto& [u, v] : trace[t].edges()) {
      os << u << " " << v << "\n";
    }
  }
}

std::vector<Snapshot> read_trace(std::istream& is, std::size_t num_nodes) {
  std::vector<Snapshot> trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    if (line[0] == 't') {
      char tag;
      std::size_t index;
      if (!(ls >> tag >> index) || index != trace.size()) {
        throw std::invalid_argument("read_trace: bad header at line " +
                                    std::to_string(line_no));
      }
      trace.emplace_back(num_nodes);
    } else {
      if (trace.empty()) {
        throw std::invalid_argument("read_trace: edge before first header");
      }
      std::uint64_t u, v;
      if (!(ls >> u >> v) || u >= num_nodes || v >= num_nodes || u == v) {
        throw std::invalid_argument("read_trace: bad edge at line " +
                                    std::to_string(line_no));
      }
      trace.back().add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  }
  if (trace.empty()) {
    throw std::invalid_argument("read_trace: empty trace");
  }
  return trace;
}

}  // namespace megflood
