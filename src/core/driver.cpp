#include "core/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/format.hpp"
#include "core/scenario.hpp"
#include "util/fault_injection.hpp"
#include "util/parse.hpp"
#include "util/resource.hpp"

namespace megflood {

namespace {

void print_usage(std::ostream& os) {
  os << "usage: megflood_run --model=<name> [--<param>=<value> ...]\n"
        "                    [--process=<spec>] [--trials=N] [--seed=S]\n"
        "                    [--max_rounds=M] [--warmup=W|auto] [--threads=T]\n"
        "                    [--rotate_sources=0|1] [--format=table|csv|json]\n"
        "                    [--sweep=key=a:b:step[,key=a:b:step...]]\n"
        "                    [--checkpoint=FILE]\n"
        "                    [--inject=SPEC] [--contain=0|1]\n"
        "                    [--deadline=SECONDS] [--rss_budget_mb=N]\n"
        "       megflood_run --list\n"
        "\n"
        "process spec: flooding | gossip[:push|pull|pushpull] | kpush[:<k>]\n"
        "              | radio[:<tau>] | ttl[:<ttl>]\n"
        "--warmup=auto uses the model's suggested warmup (Theta(L/v) for\n"
        "the geometric mobility models; models without one fail hard).\n"
        "--sweep runs one scenario per point of the Cartesian product of\n"
        "the comma-joined axes (first key slowest) and emits one CSV row\n"
        "per point (requires --format=csv; every swept key must be a\n"
        "declared model parameter and appear once — duplicates are a hard\n"
        "error).\n"
        "--checkpoint journals each completed trial; re-running the same\n"
        "campaign (same scenario CLI, seed, trials, threads) resumes and\n"
        "reproduces the uninterrupted output byte for byte.\n"
        "--inject arms deterministic fault sites, e.g.\n"
        "  throw:trial=K | throw:prob=P | slow:trial=K,ms=M |\n"
        "  alloc:trial=K,mb=M | kill:after=K   (join sites with '+')\n"
        "exit codes:   0 ok, 2 invalid scenario/usage, 3 no trial completed\n"
        "              (sweep: 3 if any point completed no trial),\n"
        "              4 partial (trial errors, interruption, or an\n"
        "              uncontained runtime failure)\n";
}

void print_list(std::ostream& os) {
  os << "registered models:\n";
  for (const ScenarioModelInfo& info : scenario_models()) {
    os << "\n  " << info.name << " — " << info.summary << "\n";
    for (const ScenarioParam& param : info.params) {
      char line[256];
      std::snprintf(line, sizeof(line), "    --%-16s default %-12s %s\n",
                    param.name.c_str(), param.default_value.c_str(),
                    param.description.c_str());
      os << line;
    }
  }
  os << "\nprocesses: flooding | gossip[:push|pull|pushpull] | "
        "kpush[:<k>] | radio[:<tau>] | ttl[:<ttl>]\n";
}

// Per-trial diagnostics shared by every non-table format path; the
// machine-readable stream on `out` stays clean.
void report_trouble(std::ostream& err, const ScenarioSpec& spec,
                    const Measurement& m, const std::string& where) {
  const std::string at = where.empty() ? "" : " at " + where;
  if (m.incomplete > 0) {
    err << "megflood_run: " << m.incomplete << "/" << spec.trial.trials
        << " trials incomplete" << at << "\n";
  }
  for (const TrialError& e : m.errors) {
    err << "megflood_run: trial " << e.trial << " failed" << at << ": "
        << e.what << " (graph_seed=" << e.graph_seed
        << " process_seed=" << e.process_seed << ")\n";
  }
  if (m.interrupted) {
    err << "megflood_run: interrupted" << at << " — " << m.not_run << "/"
        << spec.trial.trials
        << " trials never ran (completed trials are recorded)\n";
  }
}

// Folds one measurement into the campaign exit code; partial (4)
// dominates stalled (3).
int worse_exit(int current, const Measurement& m) {
  if (!m.errors.empty() || m.interrupted) return kExitPartial;
  if (m.all_incomplete()) return std::max(current, kExitStalled);
  return current;
}

// A short "a=0.02 b=3" label for diagnostics about one sweep point.
std::string point_label(const SweepPoint& point) {
  std::string label;
  for (const auto& [key, value] : point) {
    label += (label.empty() ? "" : " ") + key + "=" + value;
  }
  return label;
}

// One scenario run per Cartesian point, one CSV row per point with the
// swept values as the leading columns (axes in input order).  A stalled
// point must not hide in a green sweep (exit 3); a point with trial
// errors or an interruption is partial (exit 4).
int run_sweep(std::ostream& out, std::ostream& err, const ScenarioSpec& base,
              const std::vector<SweepSpec>& axes, const MeasureHooks& hooks) {
  const std::vector<SweepPoint> points = expand_sweep_points(axes);
  bool header_emitted = false;
  int code = kExitOk;
  for (const SweepPoint& point : points) {
    if (hooks.cancel && hooks.cancel->load(std::memory_order_relaxed)) {
      err << "megflood_run: interrupted — sweep stopped before "
          << point_label(point) << "\n";
      return kExitPartial;
    }
    ScenarioSpec spec = base;
    for (const auto& [key, value] : point) {
      spec.params[key] = value;
    }
    const ScenarioResult result = run_scenario(spec, hooks);
    auto fields = result_fields(spec, result);
    fields.emplace_back("warnings", join_warnings(result.warnings));
    // Prepend the swept values — unless a result column already carries
    // the key (sweeping n: the built-in n column holds exactly the swept
    // value, and a duplicate header name breaks by-name CSV consumers).
    ResultFields prefix;
    for (const auto& [key, value] : point) {
      const bool already_a_column = std::any_of(
          fields.begin(), fields.end(),
          [&, k = key](const auto& field) { return field.first == k; });
      if (!already_a_column) prefix.emplace_back(key, value);
    }
    fields.insert(fields.begin(), prefix.begin(), prefix.end());
    if (!header_emitted) {
      emit_csv_header(out, fields);
      header_emitted = true;
    }
    emit_csv_row(out, fields);
    code = worse_exit(code, result.measurement);
    report_trouble(err, spec, result.measurement, point_label(point));
  }
  return code;
}

std::uint64_t parse_flag_u64(const std::string& flag, const std::string& value,
                             std::uint64_t max) {
  const auto parsed = parse_whole_u64(value);
  if (!parsed || *parsed > max) {
    throw std::invalid_argument(flag + " must be an integer in [0, " +
                                std::to_string(max) + "], got '" + value + "'");
  }
  return *parsed;
}

double parse_flag_seconds(const std::string& flag, const std::string& value) {
  const auto parsed = parse_finite_double(value);
  if (!parsed || *parsed < 0.0) {
    throw std::invalid_argument(flag + " must be a non-negative number of "
                                "seconds, got '" + value + "'");
  }
  return *parsed;
}

bool parse_flag_bool(const std::string& flag, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument(flag + " must be 0|1, got '" + value + "'");
}

}  // namespace

std::atomic<bool>& driver_cancel_flag() {
  // The one sanctioned mutable singleton: POSIX signal handlers can only
  // reach process-global state, so the SIGINT/SIGTERM graceful-stop flag
  // cannot be passed explicitly.  Atomic, write-once (false -> true), and
  // never read on an output-affecting path before the workers observe it
  // through MeasureHooks::cancel.
  // megflood-lint: allow(mutable-global)
  static std::atomic<bool> flag{false};
  return flag;
}

int run_driver(const std::vector<std::string>& raw_args, std::ostream& out,
               std::ostream& err) {
  std::vector<std::string> args;
  std::string format = "table";
  std::string sweep_arg;
  std::string checkpoint_path;
  std::string inject_spec;
  std::string contain_arg = "1";
  std::string deadline_arg = "0";
  std::string rss_budget_arg = "0";
  bool list = false;
  for (const std::string& arg : raw_args) {
    if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(out);
      return kExitOk;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg.rfind("--sweep=", 0) == 0) {
      if (!sweep_arg.empty()) {
        err << "megflood_run: --sweep given twice\n";
        return kExitConfigError;
      }
      sweep_arg = arg.substr(8);
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      checkpoint_path = arg.substr(13);
    } else if (arg.rfind("--inject=", 0) == 0) {
      inject_spec = arg.substr(9);
    } else if (arg.rfind("--contain=", 0) == 0) {
      contain_arg = arg.substr(10);
    } else if (arg.rfind("--deadline=", 0) == 0) {
      deadline_arg = arg.substr(11);
    } else if (arg.rfind("--rss_budget_mb=", 0) == 0) {
      rss_budget_arg = arg.substr(16);
    } else {
      args.push_back(arg);
    }
  }
  if (list) {
    print_list(out);
    return kExitOk;
  }
  if (format != "table" && format != "csv" && format != "json") {
    err << "megflood_run: format must be table|csv|json, got '" << format
        << "'\n";
    return kExitConfigError;
  }
  if (!sweep_arg.empty() && format != "csv") {
    err << "megflood_run: --sweep emits one row per point and "
           "requires --format=csv\n";
    return kExitConfigError;
  }
  if (!sweep_arg.empty() && !checkpoint_path.empty()) {
    // The journal header binds ONE campaign identity; a sweep is many.
    err << "megflood_run: --checkpoint and --sweep cannot be combined "
           "(the journal binds a single campaign)\n";
    return kExitConfigError;
  }
  if (checkpoint_path.empty() && !inject_spec.empty() &&
      inject_spec.find("kill:") != std::string::npos) {
    err << "megflood_run: inject site 'kill' needs --checkpoint "
           "(it fires after durable records)\n";
    return kExitConfigError;
  }
  if (args.empty()) {
    print_usage(err);
    return kExitConfigError;
  }

  try {
    ScenarioSpec spec = parse_scenario_args(args);
    spec.trial.contain_errors = parse_flag_bool("contain", contain_arg);
    spec.trial.trial_deadline_s =
        parse_flag_seconds("deadline", deadline_arg);
    // Capped so that the shift to bytes cannot wrap.
    const std::uint64_t rss_budget_bytes =
        parse_flag_u64("rss_budget_mb", rss_budget_arg, UINT64_MAX >> 20) << 20;

    FaultPlan plan;
    if (!inject_spec.empty()) {
      try {
        plan = FaultPlan::parse(inject_spec, spec.trial.seed);
      } catch (const std::invalid_argument& error) {
        // A typo'd site should die with the grammar on one line, not a
        // bare message the user has to chase into the docs.
        err << "megflood_run: bad --inject: " << error.what() << "\n"
            << fault_inject_grammar() << "\n";
        return kExitConfigError;
      }
    }
    MeasureHooks hooks;
    hooks.cancel = &driver_cancel_flag();
    if (!plan.empty()) {
      hooks.on_trial_start = [&plan](std::size_t trial) {
        plan.fire_trial_start(trial);
      };
      hooks.on_trial_recorded = [&plan](std::size_t trial) {
        plan.fire_trial_recorded(trial);
      };
    }

    if (!sweep_arg.empty()) {
      const std::vector<SweepSpec> axes = parse_multi_sweep(sweep_arg);
      for (const SweepSpec& axis : axes) {
        if (spec.params.count(axis.key)) {
          err << "megflood_run: --" << axis.key
              << " is both fixed and swept\n";
          return kExitConfigError;
        }
      }
      return run_sweep(out, err, spec, axes, hooks);
    }

    std::unique_ptr<CheckpointJournal> journal;
    if (!checkpoint_path.empty()) {
      // The canonical campaign identity (driver flags excluded) plus the
      // thread count is what the journal binds.
      const CheckpointKey key{campaign_key(spec), spec.trial.threads};
      journal = std::make_unique<CheckpointJournal>(checkpoint_path, key);
      hooks.checkpoint = journal.get();
      if (journal->replayed_trials() > 0) {
        // stderr only: resumption must not perturb the byte-identical
        // stdout contract.
        err << "megflood_run: resumed " << journal->replayed_trials() << "/"
            << spec.trial.trials << " trials from " << journal->path()
            << "\n";
      }
      for (const TrialError& e : journal->replayed_errors()) {
        err << "megflood_run: previous run recorded trial " << e.trial
            << " error (will retry): " << e.what << "\n";
      }
    }

    const ScenarioResult result = run_scenario(spec, hooks);
    std::vector<std::string> warnings = result.warnings;
    // Under ASan/TSan the shadow runtime owns most of the peak RSS, so the
    // soft budget would warn about sanitizer bookkeeping, not the
    // campaign — skip it the same way the storage regression guards do.
    if (rss_guard_reliable()) {
      if (const auto rss = check_soft_rss_budget(rss_budget_bytes)) {
        warnings.push_back(*rss);
      }
    }
    if (format == "csv") {
      emit_csv(out, spec, result, warnings);
    } else if (format == "json") {
      emit_json(out, spec, result, warnings);
    } else {
      emit_table(out, spec, result);
    }
    if (format == "table") {
      for (const std::string& w : warnings) {
        err << "megflood_run: warning: " << w << "\n";
      }
    }
    report_trouble(err, spec, result.measurement, "");
    return worse_exit(kExitOk, result.measurement);
  } catch (const std::invalid_argument& error) {
    err << "megflood_run: " << error.what() << "\n";
    return kExitConfigError;
  } catch (const std::exception& error) {
    // Not a configuration problem: the campaign started and died
    // (uncontained trial error with --contain=0, checkpoint I/O failure).
    err << "megflood_run: run failed: " << error.what() << "\n";
    return kExitPartial;
  }
}

}  // namespace megflood
