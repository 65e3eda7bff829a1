// Example: epidemic-style data dissemination in an opportunistic MANET.
//
// Scenario (the paper's motivating application, Section 1): n vehicles or
// pedestrians move through an L x L urban area following the random
// waypoint model; radios reach r meters; one node starts with an alert
// message and everyone floods opportunistically on contact.  In the
// realistic regime r and v are constants while the area grows with n, so
// the instantaneous network is sparse and disconnected — classic
// delay-tolerant networking.  The paper proves delivery completes in
// O(sqrt(n)/v * polylog n) rounds anyway; this example measures it and
// shows the phase structure (few "seed" carriers crossing the area, then
// an explosion of local contacts).  Delivery statistics come from the
// generic measure() harness (flooding vs TTL-limited relaying); one extra
// realization illustrates the timeline.
//
//   $ ./manet_epidemic [nodes] [radius] [vmax]

#include <cstdlib>
#include <iostream>
#include <memory>

#include "analysis/bounds.hpp"
#include "core/flooding.hpp"
#include "core/process.hpp"
#include "core/trial.hpp"
#include "mobility/random_trip.hpp"
#include "protocols/ttl_flooding.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace megflood;

  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 128;
  const double radius = argc > 2 ? std::strtod(argv[2], nullptr) : 1.0;
  const double vmax = argc > 3 ? std::strtod(argv[3], nullptr) : 1.0;

  WaypointParams params;
  params.side_length = std::sqrt(static_cast<double>(n));  // sparse regime
  params.v_min = 0.5 * vmax;
  params.v_max = vmax;
  params.radius = radius;
  params.resolution = std::max<std::size_t>(
      32, static_cast<std::size_t>(2.0 * params.side_length));

  std::cout << "MANET: " << n << " nodes on a " << params.side_length << " x "
            << params.side_length << " area, radio range " << radius
            << ", speed <= " << vmax << "\n";

  const auto manet = make_random_waypoint(n, params, /*seed=*/7);
  // Let the mobility process reach its stationary regime before the alert
  // is injected (T_mix = Theta(L / v_max)).
  const auto warmup = manet->suggested_warmup();
  for (std::uint64_t w = 0; w < warmup; ++w) manet->step();
  std::cout << "warmed up " << warmup << " rounds (mixing)\n";

  // How connected is a snapshot?  Count isolated nodes right now.
  std::size_t isolated = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (manet->snapshot().degree(v) == 0) ++isolated;
  }
  std::cout << "snapshot: " << manet->snapshot().num_edges() << " links, "
            << isolated << "/" << n << " nodes isolated "
            << "(sparse & disconnected, as the theory allows)\n\n";

  const FloodResult result = flood(*manet, 0, 10'000'000);
  if (!result.completed) {
    std::cout << "alert did not reach everyone within the budget\n";
    return 1;
  }

  Table timeline({"round", "informed", "% of network"});
  for (std::size_t frac : {1, 2, 4, 10, 20, 50, 90, 100}) {
    const std::size_t target =
        std::max<std::size_t>(1, frac * n / 100);
    for (std::size_t t = 0; t < result.informed_counts.size(); ++t) {
      if (result.informed_counts[t] >= target) {
        timeline.add_row(
            {Table::integer(static_cast<long long>(t)),
             Table::integer(
                 static_cast<long long>(result.informed_counts[t])),
             Table::integer(static_cast<long long>(frac))});
        break;
      }
    }
  }
  timeline.print(std::cout);

  const PhaseSplit phases = split_phases(result, n);
  std::cout << "\ndelivery completed in " << result.rounds << " rounds ("
            << phases.spreading_rounds << " spreading + "
            << phases.saturation_rounds << " saturation)\n";

  // Multi-trial delivery statistics through the generic harness: full
  // opportunistic flooding vs TTL-limited relaying (nodes stop carrying
  // the alert after ttl rounds — cheaper, but completion is no longer
  // guaranteed; incomplete trials are accounted, not averaged in).
  const GraphFactory manet_factory =
      [&](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
    return make_random_waypoint(n, params, seed);
  };
  TrialConfig cfg;
  cfg.trials = 8;
  cfg.seed = 7;
  cfg.max_rounds = 10'000'000;
  cfg.warmup_steps = warmup;
  cfg.threads = 0;
  std::cout << "\ndelivery statistics over " << cfg.trials
            << " trials (rotating sources):\n";
  Table stats({"protocol", "rounds p50", "rounds p90", "incomplete"});
  const auto add_row = [&](const std::string& name,
                           const ProcessFactory& process) {
    const Measurement m = measure(manet_factory, process, cfg);
    stats.add_row(
        {name,
         m.all_incomplete() ? "n/a (0 done)" : Table::num(m.rounds.median, 1),
         m.all_incomplete() ? "-" : Table::num(m.rounds.p90, 1),
         Table::integer(static_cast<long long>(m.incomplete))});
  };
  add_row("flooding", [] { return std::make_unique<FloodingProcess>(); });
  add_row("ttl relay (ttl=32)",
          [] { return std::make_unique<TtlFloodingProcess>(32); });
  stats.print(std::cout);

  std::cout << "\npaper bound (constant-free): "
            << waypoint_bound(params.side_length, params.v_max, n,
                              params.radius)
            << "; trivial lower bound L/v = "
            << waypoint_lower_bound(params.side_length, params.v_max) << "\n";
  return 0;
}
