#pragma once

// The central abstraction of the library: a dynamic graph
// G([n], {E_t}_{t >= 0}) as defined in Section 2 of the paper — a
// stochastic process over edge sets on a fixed node set [n].  Concrete
// implementations are the edge-MEGs, node-MEGs and mobility models; all
// higher layers (flooding, estimators, protocols) work through this
// interface.

#include <cstddef>
#include <cstdint>

#include "core/snapshot.hpp"

namespace megflood {

class DynamicGraph {
 public:
  virtual ~DynamicGraph() = default;

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  virtual std::size_t num_nodes() const = 0;

  // The current edge set E_t.  A model may defer building it: the first
  // call after step()/reset() (or a model-specific move such as
  // collapse_to()) can do work, later calls are cheap.  The returned
  // reference is current only until the next step()/reset().  Because
  // that first call mutates deferred state, concurrent first reads of
  // one graph are not allowed: a threaded consumer reads once, serially,
  // and shares the result.
  virtual const Snapshot& snapshot() const = 0;

  // Advance the process one step: E_t -> E_{t+1}.
  virtual void step() = 0;

  // Current time t (number of step() calls since the last reset).
  std::uint64_t time() const noexcept { return time_; }

  // Re-sample the initial configuration with a fresh seed and set t = 0.
  // Whether "initial" means the stationary distribution or a worst-case
  // start is a property of the concrete model (documented per model).
  virtual void reset(std::uint64_t seed) = 0;

 protected:
  DynamicGraph() = default;

  void advance_clock() noexcept { ++time_; }
  void reset_clock() noexcept { time_ = 0; }

 private:
  std::uint64_t time_ = 0;
};

}  // namespace megflood
