#include "meg/edge_meg.hpp"

#include <limits>
#include <stdexcept>

#include "meg/pair_index.hpp"

namespace megflood {

namespace {

// Above every packed pair key (i < j, so the two words are never both all
// ones), so it closes an ascending key list: a scan that compares against
// it never needs a bounds check.
constexpr std::uint64_t kNoKey = std::numeric_limits<std::uint64_t>::max();

// Converts the ascending pair indices in `marks` to packed keys in place,
// dropping every key listed in `excluded` (ascending, closed by kNoKey).
// One forward cursor over each list replaces a search per mark.
void convert_marks(std::size_t n, std::vector<std::uint64_t>& marks,
                   const std::uint64_t* excluded) {
  PairRowCursor cursor(n);
  std::uint64_t* out = marks.data();
  std::size_t kept = 0;
  for (std::size_t r = 0; r < marks.size(); ++r) {
    const std::uint64_t key = cursor.key(out[r]);
    while (*excluded < key) ++excluded;
    out[kept] = key;
    kept += *excluded != key;
  }
  marks.resize(kept);
}

}  // namespace

TwoStateEdgeMEG::TwoStateEdgeMEG(std::size_t num_nodes, TwoStateParams params,
                                 std::uint64_t seed, EdgeMegInit init)
    : n_(num_nodes),
      chain_(params),
      init_(init),
      rng_(seed),
      total_pairs_(pair_count(num_nodes)) {
  if (num_nodes < 2) {
    throw std::invalid_argument("TwoStateEdgeMEG: need at least 2 nodes");
  }
  snapshot_.reset(n_);
  initialize();
}

void TwoStateEdgeMEG::initialize() {
  on_.clear();
  born_.clear();
  switch (init_) {
    case EdgeMegInit::kAllOff:
      break;
    case EdgeMegInit::kAllOn:
      born_.reserve(total_pairs_);
      for (std::uint32_t i = 0; i + 1 < n_; ++i) {
        for (std::uint32_t j = i + 1; j < n_; ++j) born_.push_back(pack_pair(i, j));
      }
      break;
    case EdgeMegInit::kStationary:
      draw_marks(chain_.stationary_on());
      convert_marks(n_, born_, &kNoKey);
      break;
  }
  merge_births();
}

void TwoStateEdgeMEG::draw_marks(double p) {
  // A local copy of the stream: the stores into born_ cannot alias it, so
  // its state stays in registers across the loop.
  Rng rng = rng_;
  geometric_select(rng, total_pairs_, p,
                   [this](std::uint64_t e) { born_.push_back(e); });
  rng_ = rng;
}

void TwoStateEdgeMEG::merge_births() {
  // Both lists are ascending and closed by kNoKey, so the branch-free loop
  // takes the smaller head each pass (a key in both lists — a birth mark
  // on a surviving pair — once) and stops when both heads are kNoKey.
  on_.push_back(kNoKey);
  born_.push_back(kNoKey);
  merged_.resize(on_.size() + born_.size());
  edges_.resize(merged_.size());
  const std::uint64_t* a = on_.data();
  const std::uint64_t* b = born_.data();
  std::uint64_t* key_out = merged_.data();
  std::pair<NodeId, NodeId>* edge_out = edges_.data();
  const auto n = static_cast<NodeId>(n_);
  bool out_of_range = false;
  std::size_t count = 0;
  for (;; ++count) {
    const std::uint64_t x = *a;
    const std::uint64_t y = *b;
    const std::uint64_t key = x < y ? x : y;
    if (key == kNoKey) break;
    a += x <= y;
    b += y <= x;
    key_out[count] = key;
    // The range check Snapshot::add_edge would make; i < j, so j < n
    // covers both endpoints.
    const NodeId j = pair_key_j(key);
    out_of_range |= j >= n;
    edge_out[count] = {pair_key_i(key), j};
  }
  if (out_of_range) {
    throw std::out_of_range("TwoStateEdgeMEG: edge endpoint out of range");
  }
  merged_.resize(count);
  edges_.resize(count);
  std::swap(on_, merged_);
  snapshot_.swap_edges(edges_);
}

void TwoStateEdgeMEG::step() {
  // Deaths: each edge that is on at the start of the step dies with
  // probability q.  The on-set is walked in sorted order (it is stored
  // sorted), so the RNG consumption sequence is a pure function of the
  // seed and the state.  One branch-free pass stores every key both as a
  // survivor (compacted in place, stable, hence still sorted) and as a
  // death, and advances whichever the draw picks; the dead are kept so
  // births below can be decided against the pre-step state (a pair that
  // dies this step was on, hence cannot also be born this step).
  const std::size_t count = on_.size();
  killed_.resize(count + 1);
  std::size_t dead = 0;
  if (const double q = chain_.death_rate(); q > 0.0) {
    Rng rng = rng_;  // see draw_marks
    std::uint64_t* on = on_.data();
    std::uint64_t* killed = killed_.data();
    std::size_t kept = 0;
    for (std::size_t r = 0; r < count; ++r) {
      const std::uint64_t key = on[r];
      const bool dies = rng.bernoulli(q);
      on[kept] = key;
      killed[dead] = key;
      kept += !dies;
      dead += dies;
    }
    rng_ = rng;
    on_.resize(kept);
  }
  killed_[dead] = kNoKey;

  // Births: mark every pair with probability p via geometric skipping over
  // the linear pair enumeration.  A mark on a surviving on-pair is a no-op
  // (dropped during the merge); a mark on a killed pair is discarded, which
  // restricts births to exactly the pre-step off edges.
  born_.clear();
  draw_marks(chain_.birth_rate());
  convert_marks(n_, born_, killed_.data());
  merge_births();
  advance_clock();
}

void TwoStateEdgeMEG::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  reset_clock();
  initialize();
}

}  // namespace megflood
