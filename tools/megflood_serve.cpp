// megflood_serve — the batch/query daemon: accepts scenario jobs as
// newline-delimited JSON over a Unix-domain socket (or localhost TCP),
// runs them in a pool of supervised worker processes with fair
// round-robin queueing across clients, and answers repeat queries from
// the result cache (memory + optional disk) keyed by the canonical
// campaign identity — a cache hit is free and bit-identical to the
// original run.
//
//   $ megflood_serve --socket=/tmp/megflood.sock --cache_dir=cache &
//   $ printf '%s\n' '{"op":"submit","id":"j1","args":["--model=edge_meg",
//         "--n=256","--trials=8"]}' | nc -U /tmp/megflood.sock
//
// Protocol grammar: docs/serving.md.  SIGINT/SIGTERM (or a client
// shutdown op) drain gracefully: running trials finish and are recorded,
// pending sub-jobs resolve as cancelled, outboxes flush, exit 0.  A bad
// flag exits 2 (the config-error code of docs/operations.md).

#include <csignal>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "serve/server.hpp"
#include "serve/worker.hpp"
#include "util/fault_injection.hpp"
#include "util/parse.hpp"

namespace {

extern "C" void request_graceful_stop(int /*signum*/) {
  // Async-signal-safe: a lock-free atomic store, nothing else.
  megflood::driver_cancel_flag().store(true, std::memory_order_relaxed);
}

void usage(std::ostream& out) {
  out << "usage: megflood_serve [--socket=<path> | --port=<n>]\n"
         "                      [--workers=<n>] [--cache_dir=<path>]\n"
         "                      [--max_line=<bytes>] [--max_queue=<n>]\n"
         "                      [--max_client_queue=<n>] [--inject=<spec>]\n"
         "                      [--worker_memory_mb=<n>]\n"
         "  --socket=<path>     listen on a Unix-domain socket\n"
         "  --port=<n>          listen on localhost TCP (0 = ephemeral;\n"
         "                      the bound port is printed on stdout)\n"
         "  --workers=<n>       worker processes (default 0 = one per\n"
         "                      hardware thread); a crashed worker is\n"
         "                      respawned and its campaign retried, and a\n"
         "                      campaign that crashes twice is quarantined\n"
         "                      (docs/serving.md)\n"
         "  --cache_dir=<path>  persist the result cache on disk; also arms\n"
         "                      crash-recovery journaling (interrupted\n"
         "                      campaigns resume on restart)\n"
         "  --max_line=<bytes>  request-line length limit (default 65536)\n"
         "  --max_queue=<n>     admission cap on queued sub-jobs across all\n"
         "                      clients (0 = unbounded); over-limit submits\n"
         "                      are rejected with a retry_after_ms hint\n"
         "  --max_client_queue=<n>  per-client queued sub-job cap\n"
         "  --inject=<spec>     fault injection (docs/operations.md), incl.\n"
         "                      the daemon sites drop/stallwrite/corrupt\n"
         "  --worker_memory_mb=<n>  per-job RLIMIT_AS budget for workers,\n"
         "                      MiB (0 = unlimited)\n"
         "  --isolation=process the only isolation there is, accepted so\n"
         "                      that older command lines still start\n";
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  const auto parsed = megflood::parse_whole_u64(value);
  if (!parsed) {
    throw std::invalid_argument(flag + " is not an integer: '" + value + "'");
  }
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: this same binary, self-execed by the daemon's
  // supervisor, speaking the serve/worker.hpp protocol on fds 0/1.
  // Recognized before anything else so a worker never binds sockets or
  // installs the daemon's handlers — the supervisor owns its lifecycle
  // (a terminal Ctrl-C must drain through the daemon, not tear workers
  // mid-trial, hence SIG_IGN).
  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    std::string inject;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.compare(0, 9, "--inject=") == 0) {
        inject = arg.substr(9);
      } else {
        std::cerr << "megflood_serve: unrecognized worker flag '" << arg
                  << "'\n";
        return 2;
      }
    }
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGTERM, SIG_IGN);
    try {
      return megflood::serve::run_worker_main(0, 1, inject);
    } catch (const std::exception& e) {
      std::cerr << "megflood_serve: bad --inject: " << e.what() << "\n"
                << megflood::fault_inject_grammar() << "\n";
      return 2;
    }
  }

  std::signal(SIGINT, request_graceful_stop);
  std::signal(SIGTERM, request_graceful_stop);

  megflood::serve::ServerConfig config;
  bool port_given = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      }
      const std::size_t equals = arg.find('=');
      if (arg.compare(0, 2, "--") != 0 || equals == std::string::npos) {
        throw std::invalid_argument("unrecognized argument '" + arg + "'");
      }
      const std::string flag = arg.substr(0, equals);
      const std::string value = arg.substr(equals + 1);
      if (flag == "--socket") {
        config.unix_path = value;
      } else if (flag == "--port") {
        const std::uint64_t port = parse_u64(flag, value);
        if (port > 65535) {
          throw std::invalid_argument("--port out of range: " + value);
        }
        config.tcp_port = static_cast<std::uint16_t>(port);
        port_given = true;
      } else if (flag == "--workers") {
        config.workers = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--cache_dir") {
        config.cache_dir = value;
      } else if (flag == "--max_line") {
        config.max_line = static_cast<std::size_t>(parse_u64(flag, value));
        if (config.max_line < 64) {
          throw std::invalid_argument("--max_line must be >= 64");
        }
      } else if (flag == "--max_queue") {
        config.max_queue = static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--max_client_queue") {
        config.max_client_queue =
            static_cast<std::size_t>(parse_u64(flag, value));
      } else if (flag == "--inject") {
        config.inject = value;
      } else if (flag == "--isolation") {
        if (value == "thread") {
          throw std::invalid_argument(
              "--isolation=thread was removed: every campaign runs in a "
              "supervised worker process");
        }
        if (value != "process") {
          throw std::invalid_argument("--isolation must be 'process', got '" +
                                      value + "'");
        }
      } else if (flag == "--worker_memory_mb") {
        config.worker_memory_mb = parse_u64(flag, value);
        // Capped so that the shift to bytes cannot wrap to a ~0 budget.
        if (config.worker_memory_mb > (UINT64_MAX >> 20)) {
          throw std::invalid_argument("--worker_memory_mb out of range: " +
                                      value);
        }
      } else {
        throw std::invalid_argument("unrecognized flag '" + flag + "'");
      }
    }
    if (!config.unix_path.empty() && port_given) {
      throw std::invalid_argument("--socket and --port are exclusive");
    }
    if (config.unix_path.empty() && !port_given) {
      throw std::invalid_argument("one of --socket or --port is required");
    }
  } catch (const std::exception& e) {
    std::cerr << "megflood_serve: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  // Validate the inject spec up front so a typo'd site dies with the
  // grammar on one line, not the full usage wall (the Server constructor
  // would reject it anyway, but less readably).
  if (!config.inject.empty()) {
    try {
      (void)megflood::FaultPlan::parse(config.inject, 1);
    } catch (const std::exception& e) {
      std::cerr << "megflood_serve: bad --inject: " << e.what() << "\n"
                << megflood::fault_inject_grammar() << "\n";
      return 2;
    }
  }
  config.worker_binary = megflood::serve::self_executable_path(argv[0]);

  try {
    megflood::serve::Server server(config);
    if (server.recovered_journals() > 0) {
      std::cout << "megflood_serve: recovered " << server.recovered_journals()
                << " interrupted campaign(s)" << std::endl;
    }
    if (!config.unix_path.empty()) {
      std::cout << "megflood_serve: listening on " << config.unix_path
                << std::endl;
    } else {
      std::cout << "megflood_serve: listening on 127.0.0.1:" << server.port()
                << std::endl;
    }
    const int status = server.serve(megflood::driver_cancel_flag());
    std::cout << "megflood_serve: drained, exiting" << std::endl;
    return status;
  } catch (const std::exception& e) {
    std::cerr << "megflood_serve: " << e.what() << "\n";
    return 2;
  }
}
