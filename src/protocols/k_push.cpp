#include "protocols/k_push.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace megflood {

KPushProcess::KPushProcess(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("KPushProcess: k must be >= 1");
}

void KPushProcess::begin_trial(std::size_t /*num_nodes*/, NodeId /*source*/) {
  transmissions_ = 0;
}

void KPushProcess::round(const Snapshot& snapshot,
                         std::vector<char>& informed,
                         std::vector<NodeId>& newly, Rng& rng) {
  const std::size_t n = informed.size();
  for (NodeId u = 0; u < n; ++u) {
    if (informed[u] != 1) continue;
    const auto& nbrs = snapshot.neighbors(u);
    if (nbrs.empty()) continue;
    if (nbrs.size() <= k_) {
      picks_.assign(nbrs.begin(), nbrs.end());
    } else {
      // Partial Fisher-Yates over a copy: k distinct uniform picks.
      picks_.assign(nbrs.begin(), nbrs.end());
      for (std::size_t i = 0; i < k_; ++i) {
        const std::size_t j = i + rng.uniform_int(picks_.size() - i);
        std::swap(picks_[i], picks_[j]);
      }
      picks_.resize(k_);
    }
    transmissions_ += picks_.size();
    for (NodeId v : picks_) {
      if (!informed[v]) {
        informed[v] = 2;
        newly.push_back(v);
      }
    }
  }
}

void KPushProcess::metrics(MetricsBag& out) const {
  out["transmissions"] = static_cast<double>(transmissions_);
}

RandomSubsetOverlay::RandomSubsetOverlay(DynamicGraph& inner, std::size_t k,
                                         std::uint64_t seed)
    : inner_(&inner), k_(k), rng_(seed) {
  if (k == 0) {
    throw std::invalid_argument("RandomSubsetOverlay: k must be >= 1");
  }
  overlay_.reset(inner_->num_nodes());
  rebuild_overlay();
}

RandomSubsetOverlay::RandomSubsetOverlay(std::unique_ptr<DynamicGraph> inner,
                                         std::size_t k, std::uint64_t seed)
    : RandomSubsetOverlay(*inner, k, seed) {
  owned_ = std::move(inner);
}

void RandomSubsetOverlay::rebuild_overlay() {
  const Snapshot& snap = inner_->snapshot();
  const std::size_t n = inner_->num_nodes();
  overlay_.clear();
  // Each node selects up to k incident edges; an edge is kept iff either
  // endpoint selected it.  Dedup via a "kept" membership test on the
  // smaller endpoint's selection set.
  std::vector<std::vector<NodeId>> selected(n);
  std::vector<NodeId> picks;
  for (NodeId u = 0; u < n; ++u) {
    const auto& nbrs = snap.neighbors(u);
    if (nbrs.empty()) continue;
    picks.assign(nbrs.begin(), nbrs.end());
    const std::size_t keep = std::min(k_, picks.size());
    for (std::size_t i = 0; i < keep; ++i) {
      const std::size_t j = i + rng_.uniform_int(picks.size() - i);
      std::swap(picks[i], picks[j]);
    }
    picks.resize(keep);
    std::sort(picks.begin(), picks.end());
    selected[u] = picks;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : selected[u]) {
      if (v > u) {
        overlay_.add_edge(u, v);
      } else {
        // Emit (v, u) pairs once: only if v did not already select u.
        if (!std::binary_search(selected[v].begin(), selected[v].end(), u)) {
          overlay_.add_edge(u, v);
        }
      }
    }
  }
}

void RandomSubsetOverlay::step() {
  inner_->step();
  rebuild_overlay();
  advance_clock();
}

void RandomSubsetOverlay::reset(std::uint64_t seed) {
  // Determinism audit: the overlay after reset(s) is a pure function of s
  // — the inner model re-initializes from s, the selection stream is
  // reseeded from a fixed salt of s (decorrelating it from the inner
  // model's draws without any trial-local arithmetic), and the overlay is
  // rebuilt immediately, so snapshot() never exposes pre-reset edges.
  inner_->reset(seed);
  rng_.reseed(seed ^ 0xabcdef1234567890ULL);
  reset_clock();
  rebuild_overlay();
}

}  // namespace megflood
