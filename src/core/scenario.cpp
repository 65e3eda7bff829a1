#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/fixed_graphs.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/clique_flicker.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "meg/storage.hpp"
#include "mobility/random_paths.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"
#include "protocols/gossip.hpp"
#include "protocols/k_push.hpp"
#include "protocols/radio_broadcast.hpp"
#include "protocols/ttl_flooding.hpp"
#include "util/parse.hpp"

namespace megflood {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("scenario: " + message);
}

// Rejecting non-finite values here keeps every downstream range check
// sound (NaN compares false against any bound).
double parse_double(const std::string& key, const std::string& value) {
  const auto parsed = parse_finite_double(value);
  if (!parsed) {
    fail("parameter " + key + ": '" + value + "' is not a finite number");
  }
  return *parsed;
}

MegStorage parse_storage(const std::string& value) {
  if (value == "dense") return MegStorage::kDense;
  if (value == "sparse") return MegStorage::kSparse;
  if (value == "auto") return MegStorage::kAuto;
  fail("storage must be dense|sparse|auto, got '" + value + "'");
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const auto parsed = parse_whole_u64(value);
  if (!parsed) {
    fail("parameter " + key + ": '" + value +
         "' is not a non-negative integer");
  }
  return *parsed;
}

// Resolves a model's parameter map against its declared schema: every
// override key must be declared (unknown key = hard error, a typo never
// silently becomes a default), every declared key gets its default unless
// overridden.
class ParamReader {
 public:
  ParamReader(const ScenarioModelInfo& info,
              const std::map<std::string, std::string>& overrides) {
    for (const ScenarioParam& p : info.params) {
      values_[p.name] = p.default_value;
    }
    for (const auto& [key, value] : overrides) {
      const auto it = values_.find(key);
      if (it == values_.end()) {
        std::string known;
        for (const ScenarioParam& p : info.params) {
          known += (known.empty() ? "" : ", ") + p.name;
        }
        fail("model '" + info.name + "' has no parameter '" + key +
             "' (known: " + known + ")");
      }
      it->second = value;
      overridden_.insert(key);
    }
    name_ = info.name;
  }

  // Hard error when any of `keys` was explicitly overridden but the
  // selected model variant (described by `variant`) never reads it — an
  // override the run ignores is as dangerous as a typo'd key.
  void reject_unused(const std::string& variant,
                     std::initializer_list<const char*> keys) const {
    for (const char* key : keys) {
      if (overridden_.count(key)) {
        fail("model '" + name_ + "': parameter '" + std::string(key) +
             "' does not apply to " + variant);
      }
    }
  }

  const std::string& str(const std::string& key) const {
    return values_.at(key);
  }
  double num(const std::string& key) const {
    return parse_double(key, values_.at(key));
  }
  std::uint64_t u64(const std::string& key) const {
    return parse_u64(key, values_.at(key));
  }
  std::size_t size(const std::string& key) const {
    return static_cast<std::size_t>(u64(key));
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> overridden_;
  std::string name_;
};

struct ModelEntry {
  ScenarioModelInfo info;
  ScenarioModel (*build)(const ParamReader&);
};

// ---------------------------------------------------------------------------
// Model builders
// ---------------------------------------------------------------------------

ScenarioModel build_edge_meg(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const double q = p.num("q");
  double birth = p.num("p");
  // Only the documented sentinel p = 0 switches to alpha derivation; an
  // out-of-range p is a hard error like any other bad value, it must not
  // silently become "use alpha".
  if (birth < 0.0 || birth > 1.0) {
    fail("edge_meg: p must be in [0,1] (0 = derive from alpha)");
  }
  if (birth == 0.0) {
    const double alpha = p.num("alpha");
    if (alpha <= 0.0 || alpha >= 1.0) fail("edge_meg: alpha must be in (0,1)");
    birth = alpha * q / (1.0 - alpha);  // alpha = p / (p + q)
  } else {
    p.reject_unused("an explicit p (alpha is derived-p only)", {"alpha"});
  }
  const std::string init_name = p.str("init");
  EdgeMegInit init;
  if (init_name == "stationary") {
    init = EdgeMegInit::kStationary;
  } else if (init_name == "off") {
    init = EdgeMegInit::kAllOff;
  } else if (init_name == "on") {
    init = EdgeMegInit::kAllOn;
  } else {
    fail("edge_meg: init must be stationary|off|on, got '" + init_name + "'");
  }
  return {[=](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<TwoStateEdgeMEG>(
                n, TwoStateParams{birth, q}, seed, init);
          },
          n};
}

ScenarioModel build_general_edge_meg(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::string link = p.str("link");
  BurstyLink built = [&] {
    if (link == "bursty") {
      p.reject_unused("link=bursty", {"period", "on_states", "advance"});
      return make_bursty_link(p.num("wake"), p.num("ready"), p.num("drop"));
    }
    if (link == "duty_cycle") {
      p.reject_unused("link=duty_cycle", {"wake", "ready", "drop"});
      return make_duty_cycle_link(p.size("period"), p.size("on_states"),
                                  p.num("advance"));
    }
    if (link == "four_state") {
      p.reject_unused("link=four_state",
                      {"wake", "ready", "drop", "period", "on_states",
                       "advance"});
      return make_four_state_link(FourStateLinkParams{});
    }
    fail("general_edge_meg: link must be bursty|duty_cycle|four_state, got '" +
         link + "'");
  }();
  const MegStorage storage = parse_storage(p.str("storage"));
  // Resolved before trial 1 allocates anything: an explicit
  // storage=sparse on a chain without a quiescent majority fails
  // validation, and the decision travels the warning channel.
  const MegStorage resolved = GeneralEdgeMEG::resolve_storage(
      n, built.chain.stationary(), built.chi, storage);
  ScenarioModel model{[n, built, storage](std::uint64_t seed)
                          -> std::unique_ptr<DynamicGraph> {
                        return std::make_unique<GeneralEdgeMEG>(
                            n, built.chain, built.chi, seed, storage);
                      },
                      n};
  const std::string note =
      meg_storage_note("general_edge_meg", n, storage, resolved,
                       GeneralEdgeMEG::dense_footprint_bytes(n));
  if (!note.empty()) model.warnings.push_back(note);
  return model;
}

ScenarioModel build_het_edge_meg(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::string sampler_name = p.str("sampler");
  const MegStorage storage = parse_storage(p.str("storage"));
  EdgeRateSampler sampler;
  RateBounds bounds;
  if (sampler_name == "uniform_alpha") {
    p.reject_unused("sampler=uniform_alpha",
                    {"p", "q", "slow_fraction", "slow_factor"});
    sampler = uniform_alpha_rates(p.num("speed_lo"), p.num("speed_hi"),
                                  p.num("alpha_lo"), p.num("alpha_hi"));
    bounds = uniform_alpha_bounds(p.num("speed_lo"), p.num("speed_hi"),
                                  p.num("alpha_lo"), p.num("alpha_hi"));
  } else if (sampler_name == "two_speed") {
    p.reject_unused("sampler=two_speed",
                    {"speed_lo", "speed_hi", "alpha_lo", "alpha_hi"});
    sampler = two_speed_rates(TwoStateParams{p.num("p"), p.num("q")},
                              p.num("slow_fraction"), p.num("slow_factor"));
    bounds = two_speed_bounds(TwoStateParams{p.num("p"), p.num("q")},
                              p.num("slow_fraction"), p.num("slow_factor"));
  } else {
    fail("het_edge_meg: sampler must be uniform_alpha|two_speed, got '" +
         sampler_name + "'");
  }
  // Resolved at the real n: unsound RateBounds for a sparse run (e.g. a
  // zero birth envelope) fail validation, not trial 1.  A probe at n = 2
  // under the resolved mode then checks a drawn rate against them.
  const MegStorage resolved =
      HeterogeneousEdgeMEG::resolve_storage(n, storage, bounds);
  (void)HeterogeneousEdgeMEG(2, sampler, 0, resolved, bounds);
  ScenarioModel model{[n, sampler, storage, bounds](std::uint64_t seed)
                          -> std::unique_ptr<DynamicGraph> {
                        return std::make_unique<HeterogeneousEdgeMEG>(
                            n, sampler, seed, storage, bounds);
                      },
                      n};
  const std::string note = meg_storage_note(
      "het_edge_meg", n, storage, resolved,
      HeterogeneousEdgeMEG::dense_footprint_bytes(n));
  if (!note.empty()) model.warnings.push_back(note);
  return model;
}

ScenarioModel build_node_meg(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::size_t states = p.size("states");
  if (states < 3) fail("node_meg: states must be >= 3");
  const DenseChain chain = lazy_random_walk_chain(cycle_graph(states));
  const std::string connection_name = p.str("connection");
  ConnectionMap connection = [&] {
    if (connection_name == "same_state") {
      p.reject_unused("connection=same_state", {"radius"});
      return same_state_connection(states);
    }
    if (connection_name == "cycle") {
      return cycle_proximity_connection(states, p.size("radius"));
    }
    fail("node_meg: connection must be same_state|cycle, got '" +
         connection_name + "'");
  }();
  return {[n, chain, connection](std::uint64_t seed)
              -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<ExplicitNodeMEG>(n, chain, connection,
                                                     seed);
          },
          n};
}

ScenarioModel build_clique_flicker(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::size_t clique = p.size("clique");
  const double rho = p.num("rho");
  const double resample = p.num("resample");
  return {[=](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<CliqueFlickerGraph>(n, clique, rho, seed,
                                                        resample);
          },
          n};
}

ScenarioModel build_random_walk(const ParamReader& p) {
  const std::size_t n = p.size("n");
  RandomWalkParams params;
  params.move_radius = static_cast<std::uint32_t>(p.u64("move_radius"));
  params.connect_radius = static_cast<std::uint32_t>(p.u64("connect_radius"));
  params.mobile_fraction = p.num("mobile_fraction");
  const auto mobility =
      std::make_shared<const Graph>(grid_2d(p.size("side")));
  return {[n, params, mobility](std::uint64_t seed)
              -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<RandomWalkModel>(mobility, n, params,
                                                     seed);
          },
          n};
}

// The transmission radius of the geometric mobility models.  No
// proximity graph exists at r <= 0, so such a radius is a configuration
// error, caught here rather than when every trial's model throws.
double transmission_radius(const ParamReader& p) {
  const double radius = p.num("radius");
  if (!(radius > 0.0)) {
    fail("radius must be > 0, got " + p.str("radius"));
  }
  return radius;
}

ScenarioModel build_random_waypoint(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const WaypointParams params{.side_length = p.num("side"),
                              .v_min = p.num("v_min"),
                              .v_max = p.num("v_max"),
                              .radius = transmission_radius(p),
                              .resolution = p.size("resolution")};
  const GridWaypointPolicy policy(params.side_length, params.resolution,
                                  params.v_min, params.v_max);
  return {[n, params](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
            return make_random_waypoint(n, params, seed);
          },
          n, RandomTripModel::suggested_warmup(policy)};
}

ScenarioModel build_random_trip(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::string policy_name = p.str("policy");
  const double side = p.num("side");
  const double v_min = p.num("v_min");
  const double v_max = p.num("v_max");
  std::shared_ptr<const TripPolicy> policy;
  if (policy_name == "square") {
    p.reject_unused("policy=square", {"leg_lo", "leg_hi"});
    policy = std::make_shared<SquareWaypointPolicy>(
        side, v_min, v_max, p.u64("pause_lo"), p.u64("pause_hi"));
  } else if (policy_name == "disk") {
    p.reject_unused("policy=disk",
                    {"pause_lo", "pause_hi", "leg_lo", "leg_hi"});
    policy = std::make_shared<DiskWaypointPolicy>(side, v_min, v_max);
  } else if (policy_name == "direction") {
    p.reject_unused("policy=direction", {"pause_lo", "pause_hi"});
    policy = std::make_shared<RandomDirectionPolicy>(
        side, v_min, v_max, p.num("leg_lo"), p.num("leg_hi"));
  } else {
    fail("random_trip: policy must be square|disk|direction, got '" +
         policy_name + "'");
  }
  const double radius = transmission_radius(p);
  const std::size_t resolution = p.size("resolution");
  // Probe the grid so a bad resolution fails validation, not trial 1.
  (void)SquareGrid(resolution, policy->bounding_side());
  return {[n, policy, radius, resolution](std::uint64_t seed)
              -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<RandomTripModel>(n, policy, radius,
                                                     resolution, seed);
          },
          n, RandomTripModel::suggested_warmup(*policy)};
}

ScenarioModel build_grid_paths(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::size_t side = p.size("side");
  const auto connect = static_cast<std::uint32_t>(p.u64("connect_radius"));
  return {[=](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<GridLPathsModel>(side, n, connect, seed);
          },
          n};
}

std::size_t square_side(const char* model, std::size_t n) {
  const auto side = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(n))));
  if (side == 0 || side * side != n) {
    fail(std::string(model) + ": n must be a perfect square (a side*side " +
         "grid), got " + std::to_string(n));
  }
  return side;
}

ScenarioModel make_fixed_model(std::shared_ptr<const Graph> graph) {
  const std::size_t n = graph->num_vertices();
  return {[graph = std::move(graph)](std::uint64_t)
              -> std::unique_ptr<DynamicGraph> {
            return std::make_unique<FixedDynamicGraph>(*graph);
          },
          n};
}

ScenarioModel build_fixed(const ParamReader& p) {
  const std::size_t n = p.size("n");
  if (n == 0) fail("fixed: n must be >= 1");
  const std::string topology = p.str("topology");
  auto graph = std::make_shared<const Graph>([&]() -> Graph {
    if (topology == "path") return path_graph(n);
    if (topology == "cycle") return cycle_graph(n);
    if (topology == "complete") return complete_graph(n);
    if (topology == "star") return star_graph(n);
    if (topology == "grid") return grid_2d(square_side("fixed", n));
    if (topology == "torus") return torus_2d(square_side("fixed", n));
    fail("fixed: topology must be path|cycle|complete|star|grid|torus, "
         "got '" + topology + "'");
  }());
  return make_fixed_model(std::move(graph));
}

ScenarioModel build_k_augmented(const ParamReader& p) {
  const std::size_t n = p.size("n");
  const std::size_t side = square_side("k_augmented_grid", n);
  const std::size_t k = p.size("k");
  if (k == 0) fail("k_augmented_grid: k must be >= 1");
  const std::uint64_t torus = p.u64("torus");
  if (torus > 1) fail("k_augmented_grid: torus must be 0|1");
  if (torus == 1 && side <= 2 * k + 1) {
    fail("k_augmented_grid: the torus construction requires side > 2k + 1");
  }
  auto graph = std::make_shared<const Graph>(
      torus == 1 ? k_augmented_torus(side, k) : k_augmented_grid(side, k));
  return make_fixed_model(std::move(graph));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

const std::vector<ModelEntry>& registry() {
  static const std::vector<ModelEntry> entries = {
      {{"edge_meg",
        "two-state edge-Markovian evolving graph (birth p, death q)",
        {{"n", "256", "number of nodes"},
         {"p", "0", "per-edge birth probability (0 = derive from alpha)"},
         {"q", "0.3", "per-edge death probability"},
         {"alpha", "0.02", "stationary edge density p/(p+q), used when p=0"},
         {"init", "stationary", "initial edge law: stationary|off|on"}}},
       &build_edge_meg},
      {{"general_edge_meg",
        "hidden-chain edge-MEG (Appendix A generalization)",
        {{"n", "128", "number of nodes"},
         {"link", "bursty", "link chain: bursty|duty_cycle|four_state"},
         {"wake", "0.02", "bursty: off -> warming rate"},
         {"ready", "0.5", "bursty: warming -> on rate"},
         {"drop", "0.3", "bursty: on -> off rate"},
         {"period", "6", "duty_cycle: cycle length"},
         {"on_states", "2", "duty_cycle: number of on states"},
         {"advance", "0.5", "duty_cycle: advance probability"},
         {"storage", "auto",
          "state storage: dense|sparse|auto (sparse = minority map, "
          "O(minority+on) memory; auto switches on a memory threshold)"}}},
       &build_general_edge_meg},
      {{"het_edge_meg",
        "heterogeneous per-edge (p, q) edge-MEG",
        {{"n", "128", "number of nodes"},
         {"sampler", "uniform_alpha", "rate law: uniform_alpha|two_speed"},
         {"speed_lo", "0.1", "uniform_alpha: min p+q"},
         {"speed_hi", "1.0", "uniform_alpha: max p+q"},
         {"alpha_lo", "0.01", "uniform_alpha: min stationary density"},
         {"alpha_hi", "0.05", "uniform_alpha: max stationary density"},
         {"p", "0.02", "two_speed: base birth rate"},
         {"q", "0.3", "two_speed: base death rate"},
         {"slow_fraction", "0.2", "two_speed: fraction of slow edges"},
         {"slow_factor", "0.1", "two_speed: slow-edge rate scale"},
         {"storage", "auto",
          "state storage: dense|sparse|auto (sparse = on-set only, rates "
          "re-derived on demand; auto switches on a memory threshold)"}}},
       &build_het_edge_meg},
      {{"node_meg",
        "explicit node-MEG: lazy walk on a cycle of states + connection map",
        {{"n", "128", "number of nodes"},
         {"states", "12", "cycle length of the hidden state chain"},
         {"connection", "same_state", "connection map: same_state|cycle"},
         {"radius", "1", "cycle connection: max state distance"}}},
       &build_node_meg},
      {{"clique_flicker",
        "flickering-clique ablation model (max positive edge correlation)",
        {{"n", "128", "number of nodes"},
         {"clique", "16", "clique size m"},
         {"rho", "0.5", "probability the clique is on per step"},
         {"resample", "1.0", "subset resample probability per step"}}},
       &build_clique_flicker},
      {{"random_walk",
        "graph mobility: lazy-ball random walk of agents on a grid",
        {{"n", "128", "number of agents"},
         {"side", "8", "grid side (side*side points)"},
         {"move_radius", "1", "hops per move (rho)"},
         {"connect_radius", "0", "connection range in hops (0 = same point)"},
         {"mobile_fraction", "1.0", "fraction of mobile agents"}}},
       &build_random_walk},
      {{"random_waypoint",
        "random waypoint over the square (geometric mobility)",
        {{"n", "96", "number of agents"},
         {"side", "8.0", "square side length L"},
         {"v_min", "0.5", "minimum trip speed"},
         {"v_max", "1.0", "maximum trip speed"},
         {"radius", "1.0", "transmission radius"},
         {"resolution", "32", "connectivity grid resolution"}}},
       &build_random_waypoint},
      {{"random_trip",
        "Le Boudec-Vojnovic random trip class (square|disk|direction)",
        {{"n", "96", "number of agents"},
         {"policy", "square", "trip policy: square|disk|direction"},
         {"side", "8.0", "bounding square side"},
         {"v_min", "0.5", "minimum trip speed"},
         {"v_max", "1.0", "maximum trip speed"},
         {"pause_lo", "0", "square: min pause rounds at waypoint"},
         {"pause_hi", "0", "square: max pause rounds at waypoint"},
         {"leg_lo", "1.0", "direction: min leg length"},
         {"leg_hi", "4.0", "direction: max leg length"},
         {"radius", "1.0", "transmission radius"},
         {"resolution", "32", "connectivity grid resolution"}}},
       &build_random_trip},
      {{"grid_paths",
        "L-shaped shortest paths on a grid (the paper's random paths model)",
        {{"n", "200", "number of agents"},
         {"side", "10", "grid side"},
         {"connect_radius", "1", "L1 connection radius in hops"}}},
       &build_grid_paths},
      {{"fixed",
        "fixed-topology baseline: E_t = E (flooding = synchronous BFS)",
        {{"n", "64", "number of nodes (grid|torus: a perfect square)"},
         {"topology", "cycle",
          "topology: path|cycle|complete|star|grid|torus"}}},
       &build_fixed},
      {{"k_augmented_grid",
        "static k-augmented grid/torus (Corollary 6's headline example)",
        {{"n", "64", "number of nodes (side^2, a perfect square)"},
         {"k", "2", "connect grid points at hop distance <= k"},
         {"torus", "0", "1 = wrap around (regular; needs side > 2k+1)"}}},
       &build_k_augmented},
  };
  return entries;
}

const ModelEntry& find_entry(const std::string& name) {
  for (const ModelEntry& entry : registry()) {
    if (entry.info.name == name) return entry;
  }
  std::string known;
  for (const ModelEntry& entry : registry()) {
    known += (known.empty() ? "" : ", ") + entry.info.name;
  }
  fail(name.empty() ? "missing model name (pass --model=<name>; known: " +
                          known + ")"
                    : "unknown model '" + name + "' (known: " + known + ")");
}

}  // namespace

const std::vector<ScenarioModelInfo>& scenario_models() {
  static const std::vector<ScenarioModelInfo> infos = [] {
    std::vector<ScenarioModelInfo> out;
    for (const ModelEntry& entry : registry()) out.push_back(entry.info);
    return out;
  }();
  return infos;
}

ScenarioModel make_model_factory(const ScenarioSpec& spec) {
  const ModelEntry& entry = find_entry(spec.model);
  const ParamReader reader(entry.info, spec.params);
  ScenarioModel model = entry.build(reader);
  if (model.num_nodes == 0) fail(spec.model + ": n must be >= 1");
  return model;
}

ProcessFactory make_process_factory(const std::string& process_spec) {
  const std::size_t colon = process_spec.find(':');
  const std::string head = process_spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : process_spec.substr(colon + 1);
  if (head == "flooding") {
    if (!arg.empty()) fail("process flooding takes no argument");
    return [] { return std::make_unique<FloodingProcess>(); };
  }
  if (head == "gossip") {
    GossipMode mode;
    if (arg.empty() || arg == "pushpull") {
      mode = GossipMode::kPushPull;
    } else if (arg == "push") {
      mode = GossipMode::kPush;
    } else if (arg == "pull") {
      mode = GossipMode::kPull;
    } else {
      fail("gossip mode must be push|pull|pushpull, got '" + arg + "'");
    }
    return [mode] { return std::make_unique<GossipProcess>(mode); };
  }
  if (head == "kpush") {
    const std::uint64_t k = arg.empty() ? 1 : parse_u64("kpush", arg);
    if (k == 0) fail("kpush: k must be >= 1");
    return [k] { return std::make_unique<KPushProcess>(k); };
  }
  if (head == "radio") {
    const double tau = arg.empty() ? 1.0 : parse_double("radio", arg);
    if (tau <= 0.0 || tau > 1.0) fail("radio: tau must be in (0,1]");
    return [tau] { return std::make_unique<RadioBroadcastProcess>(tau); };
  }
  if (head == "ttl") {
    const std::uint64_t ttl = arg.empty() ? 8 : parse_u64("ttl", arg);
    if (ttl == 0) fail("ttl: ttl must be >= 1");
    return [ttl] { return std::make_unique<TtlFloodingProcess>(ttl); };
  }
  fail("unknown process '" + head +
       "' (known: flooding, gossip[:push|pull|pushpull], kpush[:<k>], "
       "radio[:<tau>], ttl[:<ttl>])");
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const MeasureHooks& hooks) {
  const ScenarioModel model = make_model_factory(spec);
  const ProcessFactory process = make_process_factory(spec.process);
  TrialConfig trial = spec.trial;
  if (spec.warmup_auto) {
    if (!model.suggested_warmup) {
      fail("model '" + spec.model +
           "' declares no suggested warmup, so --warmup=auto is undefined; "
           "pass a numeric --warmup (mobility models random_waypoint and "
           "random_trip support auto)");
    }
    trial.warmup_steps = *model.suggested_warmup;
  }
  ScenarioResult result;
  result.num_nodes = model.num_nodes;
  result.warnings = model.warnings;
  result.measurement = measure(model.factory, process, trial, hooks);
  return result;
}

// ---------------------------------------------------------------------------
// CLI round-trip
// ---------------------------------------------------------------------------

std::vector<std::string> scenario_to_args(const ScenarioSpec& spec) {
  std::vector<std::string> args;
  args.push_back("--model=" + spec.model);
  for (const auto& [key, value] : spec.params) {  // std::map: sorted keys
    args.push_back("--" + key + "=" + value);
  }
  args.push_back("--process=" + spec.process);
  args.push_back("--trials=" + std::to_string(spec.trial.trials));
  args.push_back("--seed=" + std::to_string(spec.trial.seed));
  args.push_back("--max_rounds=" + std::to_string(spec.trial.max_rounds));
  args.push_back("--warmup=" + (spec.warmup_auto
                                    ? std::string("auto")
                                    : std::to_string(spec.trial.warmup_steps)));
  args.push_back("--threads=" + std::to_string(spec.trial.threads));
  args.push_back("--rotate_sources=" +
                 std::string(spec.trial.rotate_sources ? "1" : "0"));
  return args;
}

std::string scenario_to_cli(const ScenarioSpec& spec) {
  std::string cli;
  for (const std::string& arg : scenario_to_args(spec)) {
    cli += (cli.empty() ? "" : " ") + arg;
  }
  return cli;
}

ScenarioSpec parse_scenario_args(const std::vector<std::string>& args) {
  ScenarioSpec spec;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      fail("expected --key=value, got '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      fail("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "model") {
      spec.model = value;
    } else if (key == "process") {
      spec.process = value;
    } else if (key == "trials") {
      spec.trial.trials = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "seed") {
      spec.trial.seed = parse_u64(key, value);
    } else if (key == "max_rounds") {
      spec.trial.max_rounds = parse_u64(key, value);
    } else if (key == "warmup") {
      if (value == "auto") {
        spec.warmup_auto = true;
        spec.trial.warmup_steps = 0;
      } else {
        spec.warmup_auto = false;
        spec.trial.warmup_steps = parse_u64(key, value);
      }
    } else if (key == "threads") {
      spec.trial.threads = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "rotate_sources") {
      if (value == "1" || value == "true") {
        spec.trial.rotate_sources = true;
      } else if (value == "0" || value == "false") {
        spec.trial.rotate_sources = false;
      } else {
        fail("rotate_sources must be 0|1|true|false, got '" + value + "'");
      }
    } else if (key.empty()) {
      fail("expected --key=value, got '" + arg + "'");
    } else {
      spec.params[key] = value;  // model parameter; validated at build time
    }
  }
  return spec;
}

ScenarioSpec parse_scenario_cli(const std::string& cli) {
  std::istringstream stream(cli);
  std::vector<std::string> args;
  std::string token;
  while (stream >> token) args.push_back(token);
  return parse_scenario_args(args);
}

}  // namespace megflood
