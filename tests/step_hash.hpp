#pragma once

// FNV-1a folding for the per-step stream pins of the edge-MEG engines
// and the mobility models (the *StepStreamIsPinned tests): each pin
// folds a model's state vectors after every step into one hash, so any
// moved draw or byte changes it.  decoded_edges() turns a snapshot's key
// array into the (u, v) pair list the pins hash and the equivalence
// tests compare.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "geometry/point.hpp"

namespace megflood {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// The snapshot's edges decoded from its keys: key order, endpoints as
// added, keys that are not edges left out.
inline EdgeList decoded_edges(const Snapshot& snapshot) {
  EdgeList edges;
  edges.reserve(snapshot.num_edges());
  snapshot.for_each_edge(
      [&edges](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  return edges;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// FNV-1a over a vector's bytes, its length first.
template <typename T, typename Alloc>
std::uint64_t fnv_mix_bytes(std::uint64_t h,
                            const std::vector<T, Alloc>& values) {
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(values.size(), 8);
  const auto* data = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t b = 0; b < values.size() * sizeof(T); ++b) mix(data[b], 1);
  return h;
}

// The stream hash of a mobility model: its agent positions (bitwise:
// points of the plane or of a mobility graph), decoded edges and CSR
// after the initializer and each of `steps` steps.
template <typename Model>
std::uint64_t mobility_stream_hash(Model& model, int steps) {
  const std::size_t n = model.num_nodes();
  std::vector<std::decay_t<decltype(model.agent_position(0))>> positions(n);
  std::uint64_t h = kFnvOffset;
  for (int t = 0; t <= steps; ++t) {
    if (t > 0) model.step();
    for (NodeId a = 0; a < n; ++a) positions[a] = model.agent_position(a);
    const Snapshot& snap = model.snapshot();
    const Snapshot::CsrView csr = snap.csr();
    h = fnv_mix_bytes(h, positions);
    h = fnv_mix_bytes(h, decoded_edges(snap));
    h = fnv_mix_bytes(h, std::vector<std::uint32_t>(csr.offsets,
                                                    csr.offsets + n + 1));
    h = fnv_mix_bytes(h, std::vector<NodeId>(csr.neighbors,
                                             csr.neighbors + csr.offsets[n]));
  }
  return h;
}

}  // namespace megflood
