#pragma once

// The classic edge-Markovian evolving graph (paper Appendix A, reference
// [10]): every one of the n(n-1)/2 potential edges evolves independently
// by the two-state chain with birth rate p and death rate q.
//
// The implementation is output-sensitive: per step it touches only the
// edges currently on plus the O(p * n^2) newly-born candidates, via
// geometric skipping — so sparse regimes (p = c/n^2 .. c/n) scale to
// thousands of nodes.
//
// The on-edge set is a sorted pair set (meg/pair_set.hpp).  A step keeps
// its draws and its bookkeeping in separate passes, so no branch that
// depends on a draw sits on the chain of log()/divide draws: one
// branch-free death pass lists the dead; the birth draws only record raw
// pair indices, which indices_to_keys converts to keys (where births
// land rows apart, as in the serve regime, each by the branch-free
// closed form of its row; meg/pair_index.hpp); and the pair
// set's merge drops the dead and the marks on them, and writes the next
// on-set in one branch-free pass; the snapshot borrows it as its key
// array.  A step
// performs no hashing, no re-sort, and (after warmup) no allocation.
//
// In the storage-mode taxonomy of meg/storage.hpp this engine is
// *always* sparse: the two-state chain needs no per-pair hidden state,
// so the on-set is the entire representation (memory O(#on)) and the
// off majority has been implicit since PR 1.  The general and
// heterogeneous engines gained the same property via their
// minority-state maps; there is no dense mode to select here.

#include <cstdint>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "markov/two_state.hpp"
#include "meg/pair_set.hpp"
#include "util/rng.hpp"

namespace megflood {

enum class EdgeMegInit {
  kStationary,  // each edge on with probability p/(p+q)
  kAllOff,      // worst-case empty start
  kAllOn,
};

class TwoStateEdgeMEG final : public DynamicGraph {
 public:
  TwoStateEdgeMEG(std::size_t num_nodes, TwoStateParams params,
                  std::uint64_t seed,
                  EdgeMegInit init = EdgeMegInit::kStationary);

  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override;
  void reset(std::uint64_t seed) override;

  const TwoStateChain& chain() const noexcept { return chain_; }

  // Number of potential edges, n(n-1)/2.
  std::uint64_t num_pairs() const noexcept { return total_pairs_; }

  // The sorted on-set, the key array the snapshot borrows.
  const PairKeys& set_keys() const noexcept {
    return on_.keys;
  }

 private:
  void initialize();
  // Appends the indices geometric_select(p) marks over the pair
  // enumeration to on_.born, ascending.
  void draw_marks(double p);

  std::size_t n_;
  TwoStateChain chain_;
  EdgeMegInit init_;
  Rng rng_;
  std::uint64_t total_pairs_;
  // On-edges, sorted ascending — the same order as the linear pair index
  // (row-major), so the RNG consumption sequence matches the historical
  // sorted-set iteration.  A step lists its deaths in on_.died, and its
  // birth marks in on_.born as pair indices, then as keys; both ascending.
  PairSet on_;
  Snapshot snapshot_;
};

}  // namespace megflood
