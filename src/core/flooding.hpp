#pragma once

// The flooding process of Section 2: I_0 = {s};
// I_{t+1} = I_t ∪ { j : ∃ i ∈ I_t with {i, j} ∈ E_t }.
// F(G, s) = min { t : I_t = [n] } and F(G) = max_s F(G, s).
//
// flood() runs the process on a live DynamicGraph and records the full
// |I_t| trajectory, which experiment E9 uses to check the paper's
// spreading-phase doubling (Lemma 11/13) and saturation phase (Lemma 14).
//
// Engine: informed sets are packed uint64 words (core/bitwords.hpp), and
// both variants walk the snapshot's raw key array, never its CSR view.
// The single-source round ORs one bit per edge endpoint; the all-sources
// variant keeps the n x n reachability matrix as bit-rows (row[v] =
// sources that have reached v) and updates it with two word-wide ORs per
// snapshot edge — ~64x less scalar work than n single-source rounds.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"

namespace megflood {

struct FloodResult {
  // True iff all n nodes were informed within the step budget.
  bool completed = false;
  // F(G, s): the first t with |I_t| = n (undefined if !completed; set to
  // the budget in that case so aggregate statistics stay conservative).
  std::uint64_t rounds = 0;
  // informed_counts[t] = |I_t| for t = 0 .. rounds.
  std::vector<std::size_t> informed_counts;
};

// Runs flooding from `source` on `graph` starting at the graph's current
// snapshot.  Round t reads E_t and the graph steps only between rounds,
// so a run of R executed rounds (the returned `rounds`, or the budget)
// leaves graph.time() advanced by max(R, 1) - 1: no step follows the
// last round.  The caller owns resetting the graph between trials.
FloodResult flood(DynamicGraph& graph, NodeId source, std::uint64_t max_rounds);

// Throws std::invalid_argument unless `snapshot` has exactly `num_nodes`
// nodes.  The round engines index their per-node state by snapshot node
// ids and read CSR rows for every node of that state, so a model whose
// snapshot disagrees with num_nodes() would read out of bounds.  Checked
// once per round.
void require_snapshot_nodes(const Snapshot& snapshot, std::size_t num_nodes);

// One flooding round applied to an explicit informed set: returns the
// number of newly informed nodes and updates `informed` /
// `informed_count`.  Shared by flood() and the protocol variants.
std::size_t flood_round(const Snapshot& snapshot, std::vector<char>& informed,
                        std::vector<NodeId>& frontier);

// Word-packed flooding round: `cur` and `next` are bit sets of
// bit_words(n) words; on entry next must equal cur.  Computes
// I_{t+1} = I_t ∪ N(I_t) into `next` and returns |I_{t+1}| - |I_t|.
// One branch-free pass over the keys (on the group form, over the
// groups); builds no CSR view.
std::size_t flood_round_words(const Snapshot& snapshot,
                              const std::uint64_t* cur, std::uint64_t* next,
                              std::size_t num_nodes);

// Rounds spent in the spreading phase (|I_t| < n/2) and the saturation
// phase (n/2 <= |I_t| < n) of a completed flood; {0, 0} if not completed.
struct PhaseSplit {
  std::uint64_t spreading_rounds = 0;
  std::uint64_t saturation_rounds = 0;
};
PhaseSplit split_phases(const FloodResult& result, std::size_t num_nodes);

// Runs flooding from *every* source over the SAME realization of the
// dynamic process (all n floods advance in lockstep against the live
// snapshot stream) and returns all n per-source results.
//
// Aggregate semantics (explicit, since a budgeted run may not complete):
//  - completed_count: number of sources with per_source[s].completed.
//  - all_completed:   completed_count == n.
//  - max_rounds: F(G) on this realization if all_completed; otherwise the
//    budget `max_rounds`, a conservative lower bound on F(G).
//  - min_rounds: min_s F(G, s) over *completed* sources only; if no
//    source completed it is the budget (NOT a valid minimum — check
//    completed_count before reading it as a radius).
//
// `threads` parallelizes the round kernel by partitioning the bit-row
// reachability matrix into contiguous word-column blocks (i.e. disjoint
// slices of the source axis): each worker applies row[v] |= row[u] over
// its own word block for the whole key array, and owns the per-source
// counters of the sources in its block, so there are no shared writes and
// no atomics in the hot loop.  The partition only splits independent
// per-source computations, so the result is bit-for-bit identical for
// every thread count.  1 = serial (no worker threads spawned), 0 = one
// worker per hardware thread.  Below kAllSourcesPoolMinWords word
// columns (up to 2496 nodes) the kernel runs serially at any thread
// count; from there on, workers are capped at one per word column
// (all_sources_workers).
//
// The per-round delta extraction keeps a per-word-column count of
// not-yet-done sources and scans only columns with incomplete sources: a
// done source's column bits are all set, so it can never produce a fresh
// bit again, and once a whole column completes its per-bit scan is pure
// overhead for the rest of the run (long tails where one slow source
// keeps the loop alive).  Purely an optimization — results are identical
// with and without the skip (tests/test_all_sources_done_columns.cpp).
struct AllSourcesResult {
  std::vector<FloodResult> per_source;
  std::uint64_t max_rounds = 0;   // F(G) on this realization (see above)
  std::uint64_t min_rounds = 0;
  std::size_t completed_count = 0;
  bool all_completed = false;
};
//
// Step contract, as in flood(): round t reads E_t and the graph steps
// only between rounds, so R executed rounds leave graph.time() advanced
// by max(R, 1) - 1 at every thread count.
AllSourcesResult flood_all_sources(DynamicGraph& graph,
                                   std::uint64_t max_rounds,
                                   std::size_t threads = 1);

// The fewest 64-source word columns at which flood_all_sources starts
// its worker pool.  Every worker waits at a barrier each round while the
// model steps, so below this size the pool costs more in that wait than
// it saves.  Measured on a 4-CPU x86 VM (TwoStateEdgeMEG, p = 2/n,
// q = 0.3): 2 and 4 workers lose to serial at 1024 nodes (16 columns)
// and only tie it at 2048 (32), while 4 workers win ~1.9x at 4096 (64);
// see bench/README.md.
inline constexpr std::size_t kAllSourcesPoolMinWords = 40;

// The worker count flood_all_sources runs with for a `threads` request
// (0 = the hardware thread count) on `num_nodes` sources: 1 below
// kAllSourcesPoolMinWords word columns, else the request capped at one
// worker per word column.
std::size_t all_sources_workers(std::size_t threads, std::size_t num_nodes);

}  // namespace megflood
