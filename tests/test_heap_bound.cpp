// Peak live heap of the edge-MEG engines that keep a sorted pair set
// (meg/pair_set.hpp), counted exactly: this executable replaces the
// global operator new and delete with versions that keep a live byte
// count and its high-water mark.  A set has one key array and one state
// array and every step writes it in place, so a sparse model's peak is
// about one map (with its room for a step's insertions) plus one step's
// complement ranks; a second copy of the map, as a double-buffered
// layout keeps, does not fit under the bounds below.  A co-location
// snapshot is held as its groups, so reading one costs O(agents) heap
// however many pairs its cliques have, and a random trip step nobody
// reads allocates nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "mobility/random_trip.hpp"
#include "protocols/gossip.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> live_bytes{0};
std::atomic<std::size_t> peak_bytes{0};
std::atomic<std::size_t> allocations{0};

// Each block carries its size in a header of the largest fundamental
// alignment, so that an unsized delete can return it.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  allocations.fetch_add(1);
  const std::size_t live = live_bytes.fetch_add(size) + size;
  std::size_t peak = peak_bytes.load();
  while (live > peak && !peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  live_bytes.fetch_sub(*static_cast<std::size_t*>(block));
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_new(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}

namespace megflood {
namespace {

// The peak live heap `fn` adds above what was live when it started.
template <typename Fn>
std::size_t peak_heap_of(Fn&& fn) {
  const std::size_t base = live_bytes.load();
  peak_bytes.store(base);
  fn();
  return peak_bytes.load() - base;
}

TEST(HeapBound, CountsEveryAllocation) {
  const std::size_t peak = peak_heap_of([] {
    std::vector<std::uint64_t> a(1000);
    std::vector<std::uint64_t> b(500);
  });
  EXPECT_EQ(peak, 1500 * sizeof(std::uint64_t));
}

TEST(HeapBound, SparseGeneralEdgeMegHoldsOneMap) {
  // The meg_sparse_flood model (bursty link, wake 8/n, ready 0.5, drop
  // 0.3) at n = 4096: ~87k map entries of 9 B (a key and a state) and
  // ~16.4k majority movers a step, each an 8-byte rank and a state byte.
  // The bound is one map plus one step's insertions with the set's 1/16
  // growth headroom, the ranks with their states, and 64 KiB for the
  // small vectors: 1.21 MB, against a 1.14 MB peak.  A double-buffered
  // map (a second ~0.8 MB copy) peaks at 2.06 MB here.
  constexpr std::size_t kNodes = 4096;
  constexpr int kSteps = 8;
  const auto link =
      make_bursty_link(8.0 / static_cast<double>(kNodes), 0.5, 0.3);
  const double movers = link.chain.row(0)[1] *
                        static_cast<double>(pair_count(kNodes));
  std::size_t largest_map = 0;
  const std::size_t peak = peak_heap_of([&] {
    GeneralEdgeMEG meg(kNodes, link.chain, link.chi, 7, MegStorage::kSparse);
    largest_map = meg.minority_count();
    for (int t = 0; t < kSteps; ++t) {
      meg.step();
      largest_map = std::max<std::size_t>(largest_map, meg.minority_count());
    }
  });
  constexpr std::size_t kEntry = sizeof(std::uint64_t) + sizeof(std::uint8_t);
  const auto ranks = static_cast<std::size_t>(movers * 1.05);
  const std::size_t bound = (largest_map + ranks) * kEntry * 17 / 16 +
                            ranks * kEntry + (std::size_t{64} << 10);
  RecordProperty("peak_bytes", static_cast<int>(peak));
  RecordProperty("bound_bytes", static_cast<int>(bound));
  EXPECT_GT(largest_map, 80000u);
  EXPECT_LE(peak, bound) << "map entries " << largest_map;
}

TEST(HeapBound, ServeRegimeTwoStateEdgeMegHoldsOneSet) {
  // The serve_mixed miss model (n = 256, alpha = 1/128, q = 0.3) from its
  // stationary start through 64 steps: ~270-295 live keys.  The peak,
  // 11 176 B, is the set's last regrowth beside the buffer it replaces,
  // the stationary start's marks in one allocation and the death slots.
  // The bound leaves ~4% to spare: a second copy of the set (over 2 KB)
  // does not fit.  After the first step the set and its death slots grow
  // only past their 1/16 headroom, once each here; death slots resized
  // to each new maximum would reallocate 5 times.
  constexpr std::size_t kNodes = 256;
  constexpr int kSteps = 64;
  constexpr std::size_t kBound = 11600;
  constexpr std::size_t kLaterAllocations = 2;
  const double alpha = 1.0 / 128;
  const double q = 0.3;
  std::size_t largest_set = 0;
  std::size_t later_allocations = 0;
  const std::size_t peak = peak_heap_of([&] {
    TwoStateEdgeMEG meg(kNodes, {alpha * q / (1.0 - alpha), q}, 3);
    meg.step();
    largest_set = meg.set_keys().size();
    const std::size_t first = allocations.load();
    for (int t = 1; t < kSteps; ++t) {
      meg.step();
      largest_set = std::max(largest_set, meg.set_keys().size());
    }
    later_allocations = allocations.load() - first;
  });
  RecordProperty("peak_bytes", static_cast<int>(peak));
  RecordProperty("later_allocations", static_cast<int>(later_allocations));
  EXPECT_GT(largest_set, 250u);
  EXPECT_LE(peak, kBound) << "largest set " << largest_set;
  EXPECT_LE(later_allocations, kLaterAllocations);
}

TEST(HeapBound, WaypointPileUpReadsAsGroups) {
  // The waypoint at the waypoint_gossip geometry (L = sqrt(n), r = 1,
  // m = 32: one point per agent) with all 2048 agents collapsed onto one
  // point, as bench_e11_mixing starts its trials: 2 096 128 pairs.  As
  // keys and a CSR (16.8 MB each) they would not fit; the groups are
  // four arrays of about one word per agent or per point, ~37 KB, and
  // the round's `newly` list 8 KB.  After the builder and the snapshot
  // hold a set of group buffers each, a round allocates nothing.
  constexpr std::size_t kAgents = 2048;
  constexpr std::size_t kBound = std::size_t{256} << 10;
  WaypointParams p;
  p.side_length = std::sqrt(static_cast<double>(kAgents));
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(kAgents, p, 4);
  GossipProcess gossip(GossipMode::kPushPull);
  gossip.begin_trial(kAgents, 0);
  Rng rng(8);
  std::vector<char> informed(kAgents, 0);
  informed[0] = 1;
  std::vector<NodeId> newly;
  std::size_t edges = 0;
  std::size_t degree = 0;
  const std::size_t peak = peak_heap_of([&] {
    model->collapse_to({0.0, 0.0});
    edges = model->snapshot().num_edges();
    degree = model->snapshot().degree(kAgents - 1);
    gossip.round(model->snapshot(), informed, newly, rng);
  });
  RecordProperty("peak_bytes", static_cast<int>(peak));
  EXPECT_EQ(edges, kAgents * (kAgents - 1) / 2);
  EXPECT_EQ(degree, kAgents - 1);
  EXPECT_LE(peak, kBound);

  for (int t = 0; t < 2; ++t) {  // the builder's second set of buffers
    model->step();
    gossip.round(model->snapshot(), informed, newly, rng);
  }
  newly.reserve(kAgents);
  const std::size_t first = allocations.load();
  for (int t = 0; t < 16; ++t) {
    model->step();
    std::fill(informed.begin(), informed.end(), char{0});
    informed[t] = 1;
    newly.clear();
    gossip.round(model->snapshot(), informed, newly, rng);
  }
  EXPECT_EQ(allocations.load() - first, 0u);
}

TEST(HeapBound, WaypointUnreadStepsAllocateNothing) {
  // The waypoint_gossip model (n = 4096, L = 64, m = 32, r = 1, speeds
  // in [0.5, 1]) through 256 steps that nobody reads, as a trial's
  // warmup runs them: the motion arrays and the arrivals list are sized
  // at construction, so a step allocates nothing.
  constexpr std::size_t kAgents = 4096;
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(kAgents, p, 5);
  const std::size_t first = allocations.load();
  for (int t = 0; t < 256; ++t) model->step();
  EXPECT_EQ(allocations.load() - first, 0u);
  EXPECT_EQ(model->time(), 256u);
}

}  // namespace
}  // namespace megflood
