// megflood_run — the scenario driver: list, validate and execute named
// spreading scenarios without recompiling a bespoke main.
//
//   $ megflood_run --list
//   $ megflood_run --model=edge_meg --n=4096 --alpha=0.002
//         --process=gossip:pushpull --trials=64 --threads=0 --format=csv
//   $ megflood_run --model=edge_meg --trials=64 --format=csv
//         --checkpoint=campaign.ckpt        # interrupt + re-run to resume
//
// The whole CLI body lives in the library (core/driver.hpp) so exit codes
// and output are testable in-process; this main only installs the signal
// handlers.  A first SIGINT/SIGTERM requests a *graceful* stop: workers
// finish the trials they are on (each is journaled if --checkpoint is
// armed), the partial statistics are emitted, and the process exits 4.
// A second one stops the process at once, by that signal's default
// action, for a trial too long to wait for; a journaled campaign loses
// only its in-flight trials.  See docs/operations.md for the exit-code
// taxonomy and checkpoint format.

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "core/driver.hpp"

namespace {

extern "C" void request_graceful_stop(int signum) {
  // Async-signal-safe: a lock-free atomic exchange, then at most signal()
  // and raise().  The raised signal stays blocked until this handler
  // returns, and is then delivered under its default action.
  if (megflood::driver_cancel_flag().exchange(true,
                                               std::memory_order_relaxed)) {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, request_graceful_stop);
  std::signal(SIGTERM, request_graceful_stop);
  const std::vector<std::string> args(argv + 1, argv + argc);
  return megflood::run_driver(args, std::cout, std::cerr);
}
