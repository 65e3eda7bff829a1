// Micro-benchmarks (google-benchmark) for the simulator's hot kernels:
// model steps, snapshot rebuilds, and flooding rounds.  These are the
// costs that bound how large an experiment the harness can run; tracked
// here so performance regressions show up alongside the science.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/bitwords.hpp"
#include "core/flooding.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "meg/on_set.hpp"
#include "meg/pair_index.hpp"
#include "mobility/random_paths.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"
#include "protocols/gossip.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

void BM_EdgeMegStepSparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TwoStateEdgeMEG meg(n, {2.0 / static_cast<double>(n * n), 0.2}, 1);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EdgeMegStepSparse)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EdgeMegStepDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TwoStateEdgeMEG meg(n, {0.2, 0.2}, 1);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
}
BENCHMARK(BM_EdgeMegStepDense)->Arg(64)->Arg(256);

void BM_EdgeMegStepServe(benchmark::State& state) {
  // The serve regime of megflood_serve's tiny campaigns (edge_meg, n = 256,
  // alpha = 1/128, q = 0.3; n alpha = 2, ~255 live edges): each geometric
  // birth skip (~420 pairs) is longer than a row, so every birth mark
  // lands rows ahead of the last one.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double alpha = 1.0 / 128;
  const double q = 0.3;
  TwoStateEdgeMEG meg(n, {alpha * q / (1.0 - alpha), q}, 1);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EdgeMegStepServe)->Arg(256);

void BM_EdgeMegServeTrial(benchmark::State& state) {
  // One serve_mixed miss trial: the serve-regime two-state edge-MEG of
  // BM_EdgeMegStepServe built at a fresh seed (stationary start), then
  // flooded from node 0 to completion.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double alpha = 1.0 / 128;
  const double q = 0.3;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    TwoStateEdgeMEG meg(n, {alpha * q / (1.0 - alpha), q}, seed++);
    const FloodResult r = flood(meg, 0, 1'000'000);
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EdgeMegServeTrial)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_GeneralEdgeMegStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto link = make_bursty_link(0.1, 0.4, 0.3);
  GeneralEdgeMEG meg(n, link.chain, link.chi, 1);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
}
BENCHMARK(BM_GeneralEdgeMegStep)->Arg(64)->Arg(256);

void BM_GeneralEdgeMegStepSparse(benchmark::State& state) {
  // Paper-scale sparse regime: bursty hidden chain scaled so the
  // stationary edge probability is ~8/n (alpha = 2 / (n/4 + 4)).
  // Storage is kAuto: n <= 4096 runs the dense reference engine
  // (numbers comparable with PR 2-4), n >= 16384 crosses the memory
  // threshold and runs the sparse minority-state map — sizes the dense
  // engine cannot allocate (~4.8 GB of per-pair state at n = 32768).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto link = make_bursty_link(4.0 / static_cast<double>(n), 0.5, 0.5);
  GeneralEdgeMEG meg(n, link.chain, link.chi, 1);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(meg_storage_name(meg.storage()));
}
BENCHMARK(BM_GeneralEdgeMegStepSparse)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_GeneralEdgeMegStepSparseThinned(benchmark::State& state) {
  // The sparse step at e2ebench's meg_sparse_flood parameters (wake 8/n,
  // ready 0.5, drop 0.3).  The warming state exits at the envelope and
  // the on state is thinned by 0.3 / 0.5, the branch that the kernel
  // above (both minority states exit at 0.5) never takes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto link = make_bursty_link(8.0 / static_cast<double>(n), 0.5, 0.3);
  GeneralEdgeMEG meg(n, link.chain, link.chi, 1, MegStorage::kSparse);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GeneralEdgeMegStepSparseThinned)->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

void BM_HeterogeneousEdgeMegStepSparse(benchmark::State& state) {
  // Sparse heterogeneous regime: per-edge alpha in [4/n, 12/n] (~8/n on
  // average), continuous rate spread so every edge has distinct rates.
  // kAuto with the analytic rate bounds: dense (identical to the 3-arg
  // ctor) through n = 4096, the on-set-only sparse engine above — at
  // n = 32768 the dense engine would need ~14 GB of rates and buckets.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double a = 8.0 / static_cast<double>(n);
  HeterogeneousEdgeMEG meg(n, uniform_alpha_rates(0.2, 0.5, 0.5 * a, 1.5 * a),
                           1, MegStorage::kAuto,
                           uniform_alpha_bounds(0.2, 0.5, 0.5 * a, 1.5 * a));
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(meg_storage_name(meg.storage()));
}
BENCHMARK(BM_HeterogeneousEdgeMegStepSparse)->Arg(1024)->Arg(4096)
    ->Arg(16384)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_FloodSparseGeneralEdgeMeg(benchmark::State& state) {
  // End-to-end flooding on the sparse minority-state engine at sizes the
  // dense per-pair representation cannot allocate: each iteration resets
  // to a fresh stationary start and floods from node 0 to completion
  // (expected O(log n / log(1 + n alpha)) rounds at alpha ~ 8/n).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto link = make_bursty_link(4.0 / static_cast<double>(n), 0.5, 0.5);
  GeneralEdgeMEG meg(n, link.chain, link.chi, 1, MegStorage::kSparse);
  std::uint64_t seed = 1;
  std::uint64_t total_rounds = 0;
  for (auto _ : state) {
    meg.reset(seed++);
    const FloodResult r = flood(meg, 0, 4096);
    total_rounds += r.rounds;
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds"] = benchmark::Counter(
      static_cast<double>(total_rounds) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FloodSparseGeneralEdgeMeg)->Arg(16384)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_ConstructSparseGeneralEdgeMeg(benchmark::State& state) {
  // The constructor alone (stationary init of the minority map) of the
  // model in e2ebench's meg_sparse_flood campaign: general_edge_meg
  // --storage=sparse with the bursty link at wake = 8/n (0.000244 at
  // n = 32768), ready 0.5, drop 0.3, so ~0.13% of the pairs start in a
  // minority state.  Destruction is not timed.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto link = make_bursty_link(8.0 / static_cast<double>(n), 0.5, 0.3);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto meg = std::make_unique<GeneralEdgeMEG>(n, link.chain, link.chi,
                                                seed++, MegStorage::kSparse);
    benchmark::DoNotOptimize(meg->snapshot().num_edges());
    state.PauseTiming();
    meg.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConstructSparseGeneralEdgeMeg)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_GeometricSelect(benchmark::State& state) {
  // geometric_select with a visit that draws and branches on its draws,
  // as the sparse minority select does (a thinning Bernoulli, then an
  // exit target), at p = state.range(0) / 10^6 and ~174763 expected
  // visits: p = 0.5 (the meg_sparse_flood envelope) reads its draws
  // through the geometric table, p = 0.000244 (below
  // kGeometricTableMinP) through libm.  Items are visits.
  const double p = static_cast<double>(state.range(0)) * 1e-6;
  const auto count = static_cast<std::uint64_t>(174763 / p);
  Rng rng(1);
  std::uint64_t visits = 0;
  for (auto _ : state) {
    std::uint64_t moved = 0;
    geometric_select(rng, count, p, [&](std::uint64_t) {
      ++visits;
      if (!rng.bernoulli(0.6)) return;
      moved += rng.uniform() < 0.5 ? 1 : 2;
    });
    benchmark::DoNotOptimize(moved);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(visits));
  state.SetLabel(p >= kGeometricTableMinP ? "table" : "libm");
}
BENCHMARK(BM_GeometricSelect)->Arg(500000)->Arg(244)
    ->Unit(benchmark::kMillisecond);

// Times sample_distinct_positions drawing state.range(0) of the pairs of
// a `nodes`-node population.
void time_subset_draw(benchmark::State& state, std::uint64_t nodes) {
  const auto k = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t bound = pair_count(nodes);
  Rng rng(1);
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    sample_distinct_positions(rng, k, bound, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}

void BM_SampleDistinctPositions(benchmark::State& state) {
  // The sparse engines' subset sampler over the n = 32768 pair population
  // (32-bit words): k = 131072 is a step's majority movers at wake = 8/n,
  // k = 699050 the initial minority of BM_ConstructSparseGeneralEdgeMeg.
  time_subset_draw(state, 32768);
}
BENCHMARK(BM_SampleDistinctPositions)->Arg(131072)->Arg(699050)
    ->Unit(benchmark::kMillisecond);

void BM_SampleDistinctPositionsPaperScale(benchmark::State& state) {
  // The same over the n = 2^20 pair population, past 2^32 pairs, so the
  // draws sort as 64-bit words in the output itself: k = 4194304 is a
  // step's majority movers at wake = 8/n.
  time_subset_draw(state, std::uint64_t{1} << 20);
}
BENCHMARK(BM_SampleDistinctPositionsPaperScale)
    ->Name("BM_SampleDistinctPositions/n:1048576")
    ->Arg(4194304)
    ->Unit(benchmark::kMillisecond);

void BM_NodeMegStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ExplicitNodeMEG meg(n, lazy_random_walk_chain(cycle_graph(12)),
                      cycle_proximity_connection(12, 1), 1);
  for (auto _ : state) {
    meg.step();
    benchmark::DoNotOptimize(meg.snapshot().num_edges());
  }
}
BENCHMARK(BM_NodeMegStep)->Arg(64)->Arg(256);

// Arguments: agents, grid side.  A side-64 grid has more than 4 points
// per agent, so the co-location build sorts by the occupied points'
// ranks.
void BM_RandomWalkStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto side = static_cast<std::size_t>(state.range(1));
  const auto g = std::make_shared<const Graph>(grid_2d(side));
  RandomWalkModel model(g, n, {}, 1);
  for (auto _ : state) {
    model.step();
    benchmark::DoNotOptimize(model.snapshot().num_edges());
  }
}
BENCHMARK(BM_RandomWalkStep)
    ->Args({128, 16})
    ->Args({512, 16})
    ->Args({512, 64});

// Argument: grid side.  The random walk model's construction, 512 agents
// moving and connecting within one hop: both hop-ball tables (one
// depth-limited BFS per point each), the stationary law, the initial
// draw and the first snapshot.
void BM_RandomWalkConstruct(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = std::make_shared<const Graph>(grid_2d(side));
  RandomWalkParams params;
  params.connect_radius = 1;
  for (auto _ : state) {
    RandomWalkModel model(g, 512, params, 1);
    benchmark::DoNotOptimize(model.snapshot().num_edges());
  }
}
BENCHMARK(BM_RandomWalkConstruct)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_WaypointStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WaypointParams p;
  p.side_length = 16.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 64;
  const auto model = make_random_waypoint(n, p, 1);
  for (auto _ : state) {
    model->step();
    benchmark::DoNotOptimize(model->snapshot().num_edges());
  }
}
BENCHMARK(BM_WaypointStep)->Arg(128)->Arg(512);

void BM_WaypointStepLarge(benchmark::State& state) {
  // Paper scale on a multi-point grid: n = 4096 agents at slow
  // (v << bucket width) speeds, about one agent per bucket; each step
  // builds the bucket snapshot with its radius filter.
  const auto n = static_cast<std::size_t>(state.range(0));
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.05;
  p.v_max = 0.1;
  p.radius = 1.0;
  p.resolution = 256;
  const auto model = make_random_waypoint(n, p, 1);
  for (auto _ : state) {
    model->step();
    benchmark::DoNotOptimize(model->snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WaypointStepLarge)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_WaypointWarmup(benchmark::State& state) {
  // A trial's --warmup=auto prefix at the waypoint_gossip campaign's
  // parameters: 4 L / v_max = 256 steps nobody reads, then the first
  // round's snapshot read.  The model builds snapshots lazily, so only
  // that read pays for the neighbor pairs.
  const auto n = static_cast<std::size_t>(state.range(0));
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(n, p, 1);
  const std::uint64_t warmup = model->suggested_warmup();
  for (auto _ : state) {
    for (std::uint64_t w = 0; w < warmup; ++w) model->step();
    benchmark::DoNotOptimize(model->snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(warmup));
}
BENCHMARK(BM_WaypointWarmup)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_TripStepPaused(benchmark::State& state) {
  // The random trip step with pauses in [0, 8] rounds at the
  // waypoint_gossip geometry (L = 64, m = 32): paused agents count down,
  // arrivals draw a trip and a pause.  Unread steps, so this times the
  // kinematics alone, like the warmup.
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomTripModel model(
      n, std::make_shared<SquareWaypointPolicy>(64.0, 0.5, 1.0, 0, 8), 1.0,
      32, 1);
  for (auto _ : state) {
    model.step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TripStepPaused)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_WaypointGossipRound(benchmark::State& state) {
  // One waypoint_gossip round after --warmup=auto: a step, the snapshot
  // read it triggers (snap, co-location sort, clique pairs and CSR) and one
  // push-pull round.  Every round starts from the same half-informed
  // set, so the protocol work stays mid-spread instead of draining once
  // everyone is informed.
  const auto n = static_cast<std::size_t>(state.range(0));
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(n, p, 1);
  for (std::uint64_t w = 0; w < model->suggested_warmup(); ++w) {
    model->step();
  }
  GossipProcess gossip(GossipMode::kPushPull);
  gossip.begin_trial(n, 0);
  Rng rng(2);
  std::vector<char> start(n);
  for (auto& mark : start) mark = static_cast<char>(rng.uniform_int(2));
  std::vector<char> informed;
  std::vector<NodeId> newly;
  for (auto _ : state) {
    model->step();
    informed = start;
    newly.clear();
    gossip.round(model->snapshot(), informed, newly, rng);
    benchmark::DoNotOptimize(newly.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WaypointGossipRound)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_WaypointRead(benchmark::State& state) {
  // The waypoint_gossip round without its process: a step and the
  // snapshot read it triggers (snap, co-location sort and, since the
  // geometry is one point per agent, the groups alone).
  const auto n = static_cast<std::size_t>(state.range(0));
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(n, p, 1);
  for (std::uint64_t w = 0; w < model->suggested_warmup(); ++w) {
    model->step();
  }
  for (auto _ : state) {
    model->step();
    benchmark::DoNotOptimize(model->snapshot().num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WaypointRead)->Arg(4096)->Unit(benchmark::kMicrosecond);

// Arguments: agents, grid side (side 256: more than 4 points per agent,
// so the co-location build sorts by the occupied points' ranks).
void BM_GridLPathsStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto side = static_cast<std::size_t>(state.range(1));
  GridLPathsModel model(side, n, 1, 1);
  for (auto _ : state) {
    model.step();
    benchmark::DoNotOptimize(model.snapshot().num_edges());
  }
}
BENCHMARK(BM_GridLPathsStep)
    ->Args({128, 16})
    ->Args({512, 16})
    ->Args({512, 256});

// One word-packed flood round (flood_round_words) with half the nodes
// informed, over the snapshot of the sparse general engine at the
// meg_sparse_flood parameters: a state-carrying snapshot, whose reader
// masks each key of the minority map by its state.
void BM_FloodRoundWordsSparseGeneral(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto link = make_bursty_link(8.0 / static_cast<double>(n), 0.5, 0.3);
  GeneralEdgeMEG meg(n, link.chain, link.chi, 1, MegStorage::kSparse);
  for (int t = 0; t < 8; ++t) meg.step();
  std::vector<std::uint64_t> cur(bit_words(n), 0), next;
  for (std::size_t i = 0; i < n / 2; ++i) set_bit(cur.data(), i);
  for (auto _ : state) {
    next = cur;
    benchmark::DoNotOptimize(
        flood_round_words(meg.snapshot(), cur.data(), next.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(meg.snapshot().keys().size()));
  state.counters["edges"] =
      static_cast<double>(meg.snapshot().num_edges());
}
BENCHMARK(BM_FloodRoundWordsSparseGeneral)->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

// The same round over a plain snapshot with as many edges: a two-state
// edge-MEG whose stationary edge density matches the general engine's
// snapshot above, so the two kernels differ by the mask.
void BM_FloodRoundWordsTwoState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto link = make_bursty_link(8.0 / static_cast<double>(n), 0.5, 0.3);
  GeneralEdgeMEG general(n, link.chain, link.chi, 1, MegStorage::kSparse);
  for (int t = 0; t < 8; ++t) general.step();
  const double alpha = static_cast<double>(general.snapshot().num_edges()) /
                       static_cast<double>(pair_count(n));
  const double q = 0.3;
  TwoStateEdgeMEG meg(n, {q * alpha / (1.0 - alpha), q}, 1);
  std::vector<std::uint64_t> cur(bit_words(n), 0), next;
  for (std::size_t i = 0; i < n / 2; ++i) set_bit(cur.data(), i);
  for (auto _ : state) {
    next = cur;
    benchmark::DoNotOptimize(
        flood_round_words(meg.snapshot(), cur.data(), next.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(meg.snapshot().keys().size()));
  state.counters["edges"] =
      static_cast<double>(meg.snapshot().num_edges());
}
BENCHMARK(BM_FloodRoundWordsTwoState)->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

// One word-packed flood round with half the nodes informed over a
// waypoint_gossip snapshot after warmup (L = 64, m = 32, r = 1): the
// group form, read one group at a time instead of one pair at a time.
void BM_FloodRoundWordsWaypoint(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(n, p, 1);
  for (std::uint64_t w = 0; w < model->suggested_warmup(); ++w) {
    model->step();
  }
  const Snapshot& snapshot = model->snapshot();
  std::vector<std::uint64_t> cur(bit_words(n), 0), next;
  for (std::size_t i = 0; i < n / 2; ++i) set_bit(cur.data(), i);
  for (auto _ : state) {
    next = cur;
    benchmark::DoNotOptimize(
        flood_round_words(snapshot, cur.data(), next.data(), n));
  }
  state.counters["edges"] = static_cast<double>(snapshot.num_edges());
}
BENCHMARK(BM_FloodRoundWordsWaypoint)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_FloodRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TwoStateEdgeMEG meg(n, {4.0 / static_cast<double>(n), 0.3}, 1);
  std::vector<char> informed(n, 0);
  for (std::size_t i = 0; i < n / 2; ++i) informed[i] = 1;
  std::vector<NodeId> scratch;
  for (auto _ : state) {
    auto copy = informed;
    benchmark::DoNotOptimize(flood_round(meg.snapshot(), copy, scratch));
  }
}
BENCHMARK(BM_FloodRound)->Arg(256)->Arg(1024);

void BM_FloodAllSources(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TwoStateEdgeMEG meg(n, {2.0 / static_cast<double>(n), 0.3}, 1);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    meg.reset(seed++);
    const AllSourcesResult all = flood_all_sources(meg, 4096);
    benchmark::DoNotOptimize(all.max_rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FloodAllSources)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_FloodAllSourcesThreaded(benchmark::State& state) {
  // Word-column-partitioned all-sources kernel; results are bit-identical
  // to BM_FloodAllSources at any thread count, so this measures pure
  // scaling of the round kernel (bounded by the host's core count).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  TwoStateEdgeMEG meg(n, {2.0 / static_cast<double>(n), 0.3}, 1);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    meg.reset(seed++);
    const AllSourcesResult all = flood_all_sources(meg, 4096, threads);
    benchmark::DoNotOptimize(all.max_rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FloodAllSourcesThreaded)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({1024, 4})
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Unit(benchmark::kMillisecond);

void BM_FullFloodSparseEdgeMeg(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TwoStateEdgeMEG meg(n, {1.0 / static_cast<double>(n), 0.3}, 1);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    meg.reset(seed++);
    const FloodResult r = flood(meg, 0, 1'000'000);
    benchmark::DoNotOptimize(r.rounds);
  }
}
BENCHMARK(BM_FullFloodSparseEdgeMeg)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace megflood

BENCHMARK_MAIN();
