#include "core/flooding.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bitwords.hpp"

namespace megflood {

void require_snapshot_nodes(const Snapshot& snapshot, std::size_t num_nodes) {
  if (snapshot.num_nodes() != num_nodes) {
    throw std::invalid_argument(
        "snapshot has " + std::to_string(snapshot.num_nodes()) +
        " nodes, the process runs on " + std::to_string(num_nodes));
  }
}

std::size_t flood_round(const Snapshot& snapshot, std::vector<char>& informed,
                        std::vector<NodeId>& frontier) {
  require_snapshot_nodes(snapshot, informed.size());
  // The flooding rule informs every node adjacent to *any* informed node,
  // but a node interior to the informed set (all neighbors informed) can
  // never inform anyone new; scanning only the informed set is exact and
  // keeping a frontier would not be (edges change every step, so old
  // informed nodes can meet new neighbors).  We scan all informed nodes.
  std::size_t newly = 0;
  frontier.clear();
  const auto [offsets, adjacency] = snapshot.csr();
  for (NodeId u = 0; u < informed.size(); ++u) {
    if (informed[u] != 1) continue;  // skip uninformed and new-this-round
    // Row bounds are hoisted into locals: the char stores into `informed`
    // may alias the uint32 offset array as far as the compiler knows, and
    // would otherwise force a reload of offsets[u + 1] per neighbor.
    const NodeId* row = adjacency + offsets[u];
    const NodeId* const row_end = adjacency + offsets[u + 1];
    for (; row != row_end; ++row) {
      const NodeId v = *row;
      if (!informed[v]) {
        informed[v] = 2;  // mark as "new this round" to avoid chaining
        frontier.push_back(v);
        ++newly;
      }
    }
  }
  // Commit: nodes informed this round become plain informed.  (Within a
  // single synchronous round, information must not chain across multiple
  // hops; the mark-then-commit protocol above enforces exactly
  // I_{t+1} = I_t ∪ N(I_t).)
  for (NodeId v : frontier) informed[v] = 1;
  return newly;
}

std::size_t flood_round_words(const Snapshot& snapshot,
                              const std::uint64_t* cur, std::uint64_t* next,
                              std::size_t num_nodes) {
  // Edge-centric and branch-free, like the all-sources round: every edge
  // ORs each endpoint's bit in `cur` into the other endpoint's bit in
  // `next`, and a key that is not an edge ORs in zeros.  Reading from
  // `cur` while writing `next` enforces the synchronous no-chaining rule
  // without per-node marks, and walking the raw key array needs no CSR
  // view.  On the group form the same bits come from the groups: a
  // member hears its clique iff another member is informed, and since
  // `next` holds `cur`, every member of a group with an informed member
  // can be set, so one pass per group replaces its k (k - 1) / 2 pairs.
  const std::size_t words = bit_words(num_nodes);
  const std::size_t before = popcount_words(next, words);
  if (const Snapshot::Groups* groups = snapshot.groups()) {
    const std::uint32_t* const end = groups->end.data();
    const NodeId* const members = groups->members.data();
    for (std::uint32_t g = 0; g < groups->count; ++g) {
      const NodeId* const first = members + end[g];
      const NodeId* const last = members + end[g + 1];
      std::uint64_t any = 0;
      for (const NodeId* a = first; a < last; ++a) any |= test_bit(cur, *a);
      for (const NodeId* a = first; a < last; ++a) {
        next[*a / kBitWordBits] |= any << (*a % kBitWordBits);
      }
    }
    return popcount_words(next, words) - before;
  }
  snapshot.for_each_key([cur, next](NodeId u, NodeId v, std::uint32_t on) {
    next[v / kBitWordBits] |= std::uint64_t{test_bit(cur, u) & on}
                              << (v % kBitWordBits);
    next[u / kBitWordBits] |= std::uint64_t{test_bit(cur, v) & on}
                              << (u % kBitWordBits);
  });
  return popcount_words(next, words) - before;
}

FloodResult flood(DynamicGraph& graph, NodeId source, std::uint64_t max_rounds) {
  const std::size_t n = graph.num_nodes();
  if (source >= n) throw std::out_of_range("flood: source out of range");

  FloodResult result;
  const std::size_t words = bit_words(n);
  std::vector<std::uint64_t> cur(words, 0), next(words, 0);
  set_bit(cur.data(), source);
  std::size_t informed_count = 1;
  result.informed_counts.push_back(informed_count);

  if (informed_count == n) {  // n == 1
    result.completed = true;
    result.rounds = 0;
    return result;
  }

  for (std::uint64_t t = 0; t < max_rounds; ++t) {
    // Round t reads E_t, so the graph steps only between rounds: no step
    // follows the last round, whose successor snapshot nobody reads.
    if (t > 0) graph.step();
    const Snapshot& snapshot = graph.snapshot();
    require_snapshot_nodes(snapshot, n);
    next = cur;
    informed_count += flood_round_words(snapshot, cur.data(), next.data(), n);
    std::swap(cur, next);
    result.informed_counts.push_back(informed_count);
    if (informed_count == n) {
      result.completed = true;
      result.rounds = t + 1;
      return result;
    }
  }
  result.completed = false;
  result.rounds = max_rounds;
  return result;
}

namespace {

// One all-sources flooding round restricted to the word-column block
// [w_lo, w_hi) — i.e. to sources [64 * w_lo, 64 * w_hi).  Refreshes the
// block of `next` from `cur`, ORs every snapshot edge over the block,
// extracts the fresh bits into the block's per-source counters, and
// advances the per-source results that live in the block.  Returns how
// many of them completed this round.
//
// This is the unit of parallelism: blocks touch disjoint words of every
// row and disjoint counter/result slots, so any partition of [0, words)
// can run concurrently with no shared writes — and since the block
// computation is a pure function of (cur, snapshot), the partition (and
// hence the thread count) cannot change a single bit of the outcome.
std::size_t all_sources_round_block(const Snapshot& snap, std::uint64_t t,
                                    std::size_t n, std::size_t words,
                                    std::size_t w_lo, std::size_t w_hi,
                                    const std::uint64_t* cur,
                                    std::uint64_t* next, std::size_t* counts,
                                    char* done, std::uint32_t* col_active,
                                    std::vector<std::size_t>& active_cols,
                                    std::vector<FloodResult>& per_source) {
  const std::size_t span = w_hi - w_lo;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t* const row_cur = cur + v * words + w_lo;
    std::copy(row_cur, row_cur + span, next + v * words + w_lo);
  }
  snap.for_each_key([=](NodeId u, NodeId v, std::uint32_t on) {
    const std::uint64_t mask = 0 - std::uint64_t{on};
    or_words(next + std::size_t{u} * words + w_lo,
             cur + std::size_t{v} * words + w_lo, span, mask);
    or_words(next + std::size_t{v} * words + w_lo,
             cur + std::size_t{u} * words + w_lo, span, mask);
  });
  // Delta extraction skips fully-done word columns: a completed source s
  // has counts[s] == n, i.e. bit s is set in every row of cur, so a fresh
  // bit can never appear in its column again — once all (up to) 64
  // sources of a column are done (col_active[w] == 0) the per-bit scan of
  // that word is pure overhead in every remaining round.  The copy and
  // edge-OR passes above stay full-span: they are branchless word ops,
  // and per-word activity checks in the OR loop would cost more than
  // they save.
  active_cols.clear();
  for (std::size_t w = w_lo; w < w_hi; ++w) {
    if (col_active[w] > 0) active_cols.push_back(w);
  }
  if (active_cols.size() == span) {
    for (std::size_t v = 0; v < n; ++v) {
      for_each_fresh_bit(cur + v * words + w_lo, next + v * words + w_lo,
                         span, w_lo * kBitWordBits,
                         [&](std::size_t s) { ++counts[s]; });
    }
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      for (const std::size_t w : active_cols) {
        for_each_fresh_bit(cur + v * words + w, next + v * words + w, 1,
                           w * kBitWordBits,
                           [&](std::size_t s) { ++counts[s]; });
      }
    }
  }
  const std::size_t s_lo = w_lo * kBitWordBits;
  const std::size_t s_hi = std::min(n, w_hi * kBitWordBits);
  std::size_t completed = 0;
  for (std::size_t s = s_lo; s < s_hi; ++s) {
    if (done[s]) continue;
    per_source[s].informed_counts.push_back(counts[s]);
    if (counts[s] == n) {
      per_source[s].completed = true;
      per_source[s].rounds = t + 1;
      done[s] = 1;
      --col_active[s / kBitWordBits];
      ++completed;
    }
  }
  return completed;
}

}  // namespace

std::size_t all_sources_workers(std::size_t threads, std::size_t num_nodes) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  const std::size_t words = bit_words(num_nodes);
  if (words < kAllSourcesPoolMinWords) return 1;
  // One worker per word column at most: a column is the atom of work.
  return std::min(threads, words);
}

AllSourcesResult flood_all_sources(DynamicGraph& graph,
                                   std::uint64_t max_rounds,
                                   std::size_t threads) {
  const std::size_t n = graph.num_nodes();
  // All n floods run interleaved against the same live snapshot stream, so
  // every source sees the same realization (the definition of F(G)).
  // State is the n x n reachability matrix, transposed into bit-rows:
  // row[v] bit s  <=>  source s has informed node v.  One snapshot edge
  // {u, v} advances every source at once via row[v] |= row[u] and
  // row[u] |= row[v] on word-packed rows; per-source counters are updated
  // from the newly-set bits (each of the <= n^2 (source, node) pairs turns
  // on exactly once over the whole run, so delta extraction amortizes).
  // Workers split the word columns (see flooding.hpp).
  AllSourcesResult all;
  all.per_source.resize(n);
  const std::size_t words = bit_words(n);
  std::vector<std::uint64_t> cur(n * words, 0);
  std::vector<std::uint64_t> next(n * words, 0);
  std::vector<std::size_t> counts(n, 1);
  std::vector<char> done(n, 0);
  std::size_t remaining = n;
  for (NodeId s = 0; s < n; ++s) {
    set_bit(cur.data() + s * words, s);  // source s starts informed at s
    all.per_source[s].informed_counts.push_back(1);
    if (n == 1) {
      all.per_source[s].completed = true;
      done[s] = 1;
      --remaining;
    }
  }
  // Per word column, the number of its sources still flooding; the delta
  // extraction visits only columns with col_active > 0.  Each block owns
  // its columns' counters, so the threaded path needs no atomics here.
  std::vector<std::uint32_t> col_active(words, 0);
  for (NodeId s = 0; s < n; ++s) {
    if (!done[s]) ++col_active[s / kBitWordBits];
  }
  const std::size_t workers = all_sources_workers(threads, n);
  if (max_rounds > 0 && remaining > 0) {
    // Round-synchronous workers: each owns a contiguous word block for the
    // whole run, and the calling thread is worker 0, so one worker starts
    // no thread.  The barrier's completion step (exclusive, runs while
    // every worker is parked; inline when there is one) swaps the
    // buffers, recomputes the shared stop flag and, unless the run stops,
    // advances the model and reads the next snapshot, as flood() steps
    // only between rounds; workers read the flag and the snapshot only
    // after the barrier, so every thread always agrees on the round count.
    // The snapshot is read serially because a first snapshot() read after
    // step() may build it (see DynamicGraph::snapshot()).  `remaining` is
    // the one cross-block quantity — decremented with a relaxed atomic in
    // the work phase, read only in the completion step.
    std::atomic<std::size_t> remaining_shared{remaining};
    std::uint64_t round = 0;
    bool stop = false;
    const Snapshot* snapshot = &graph.snapshot();
    require_snapshot_nodes(*snapshot, n);
    // Error funnel: a throwing worker (or a throwing step or read) must
    // end the run with a catchable exception, not std::terminate.
    // Failing workers record the first exception, raise `failed`, and
    // keep arriving at the barrier so nobody deadlocks; the completion
    // step turns `failed` into `stop`.
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto record_error = [&]() noexcept {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(workers), [&]() noexcept {
      try {
        std::swap(cur, next);
        ++round;
        stop = failed.load(std::memory_order_relaxed) ||
               round >= max_rounds ||
               remaining_shared.load(std::memory_order_relaxed) == 0;
        if (!stop) {
          graph.step();
          snapshot = &graph.snapshot();
          require_snapshot_nodes(*snapshot, n);
        }
      } catch (...) {
        record_error();
        stop = true;
      }
    });
    auto work = [&](std::size_t k) {
      const std::size_t w_lo = k * words / workers;
      const std::size_t w_hi = (k + 1) * words / workers;
      std::vector<std::size_t> active_cols;
      active_cols.reserve(w_hi - w_lo);
      while (true) {
        try {
          const std::size_t completed = all_sources_round_block(
              *snapshot, round, n, words, w_lo, w_hi, cur.data(),
              next.data(), counts.data(), done.data(), col_active.data(),
              active_cols, all.per_source);
          if (completed > 0) {
            remaining_shared.fetch_sub(completed, std::memory_order_relaxed);
          }
        } catch (...) {
          record_error();
        }
        sync.arrive_and_wait();
        if (stop) break;
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    try {
      for (std::size_t k = 1; k < workers; ++k) pool.emplace_back(work, k);
    } catch (...) {
      // Thread spawn failed after some workers already started: record
      // the error and retire the unspawned participants from the barrier
      // (arrive_and_drop), so the live workers can complete the current
      // phase, observe stop, and exit — the same catchable-exception
      // contract as every other failure, never a deadlock + terminate.
      record_error();
      for (std::size_t k = pool.size() + 1; k < workers; ++k) {
        sync.arrive_and_drop();
      }
    }
    work(0);
    for (std::thread& worker : pool) worker.join();
    if (first_error) std::rethrow_exception(first_error);
  }
  all.min_rounds = max_rounds;
  all.max_rounds = 0;
  for (NodeId s = 0; s < n; ++s) {
    if (!done[s]) {
      all.per_source[s].completed = false;
      all.per_source[s].rounds = max_rounds;
    } else {
      ++all.completed_count;
      all.min_rounds = std::min(all.min_rounds, all.per_source[s].rounds);
    }
    all.max_rounds = std::max(all.max_rounds, all.per_source[s].rounds);
  }
  // With zero completed sources min_rounds keeps its max_rounds
  // initialization — the documented budget fallback.
  all.all_completed = all.completed_count == n;
  return all;
}

PhaseSplit split_phases(const FloodResult& result, std::size_t num_nodes) {
  PhaseSplit split;
  if (!result.completed) return split;
  const std::size_t half = (num_nodes + 1) / 2;
  std::uint64_t first_half_time = result.rounds;
  for (std::size_t t = 0; t < result.informed_counts.size(); ++t) {
    if (result.informed_counts[t] >= half) {
      first_half_time = t;
      break;
    }
  }
  split.spreading_rounds = first_half_time;
  split.saturation_rounds = result.rounds - first_half_time;
  return split;
}

}  // namespace megflood
