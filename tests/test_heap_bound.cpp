// Peak live heap of the edge-MEG engines that keep a sorted pair set
// (meg/pair_set.hpp), counted exactly: this executable replaces the
// global operator new and delete with versions that keep a live byte
// count and its high-water mark.  A set has one key array and one state
// array and every step writes it in place, so a sparse model's peak is
// about one map (with its room for a step's insertions) plus one step's
// complement ranks; a second copy of the map, as a double-buffered
// layout keeps, does not fit under the bounds below.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"

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

}  // namespace
}  // namespace megflood
