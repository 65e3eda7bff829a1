#include "util/fault_injection.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/parse.hpp"
#include "util/rng.hpp"

namespace megflood {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("inject: " + message);
}

std::uint64_t parse_count(const std::string& key, const std::string& value) {
  const auto parsed = parse_whole_u64(value);
  if (!parsed) fail(key + ": '" + value + "' is not a non-negative integer");
  return *parsed;
}

double parse_probability(const std::string& value) {
  const auto parsed = parse_finite_double(value);
  if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
    fail("prob: '" + value + "' is not a probability in [0,1]");
  }
  return *parsed;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

// Deterministic uniform in [0,1) keyed by (seed, trial): the same pair
// maps to the same draw on every run, so prob sites are replayable.
double keyed_uniform(std::uint64_t seed, std::size_t trial) {
  SplitMix64 mix(seed ^ (static_cast<std::uint64_t>(trial) *
                         0x9e3779b97f4a7c15ULL));
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

FaultSite parse_site(const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  FaultSite site;
  bool saw_trial = false, saw_prob = false, saw_ms = false, saw_mb = false,
       saw_after = false, saw_conn = false, saw_every = false,
       saw_store = false, saw_once = false;
  if (colon != std::string::npos) {
    for (const std::string& kv : split(text.substr(colon + 1), ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail("expected key=value, got '" + kv + "' in site '" + text + "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "trial") {
        site.trial = static_cast<std::size_t>(parse_count(key, value));
        saw_trial = true;
      } else if (key == "prob") {
        site.probability = parse_probability(value);
        saw_prob = true;
      } else if (key == "ms") {
        site.sleep_ms = parse_count(key, value);
        saw_ms = true;
      } else if (key == "mb") {
        site.alloc_mb = parse_count(key, value);
        saw_mb = true;
      } else if (key == "after") {
        site.after_records = static_cast<std::size_t>(parse_count(key, value));
        saw_after = true;
      } else if (key == "conn") {
        site.conn_events = static_cast<std::size_t>(parse_count(key, value));
        saw_conn = true;
      } else if (key == "every") {
        site.every_events = parse_count(key, value);
        saw_every = true;
      } else if (key == "store") {
        site.store_index = static_cast<std::size_t>(parse_count(key, value));
        saw_store = true;
      } else if (key == "once") {
        const std::uint64_t flag = parse_count(key, value);
        if (flag > 1) fail("once: must be 0 or 1");
        site.once = flag != 0;
        saw_once = true;
      } else {
        fail("unknown key '" + key + "' in site '" + text + "'");
      }
    }
  }
  const auto require = [&](bool seen, const char* key) {
    if (!seen) fail("site '" + name + "' requires " + std::string(key));
  };
  const auto forbid = [&](bool seen, const char* key) {
    if (seen) {
      fail("site '" + name + "' does not take " + std::string(key));
    }
  };
  const auto forbid_server_keys = [&] {
    forbid(saw_conn, "conn=");
    forbid(saw_every, "every=");
    forbid(saw_store, "store=");
  };
  const auto forbid_once = [&] { forbid(saw_once, "once="); };
  if (name == "throw") {
    if (saw_trial == saw_prob) {
      fail("throw takes exactly one of trial= or prob=");
    }
    site.kind = saw_prob ? FaultSite::Kind::kThrowProb : FaultSite::Kind::kThrow;
    forbid(saw_ms, "ms=");
    forbid(saw_mb, "mb=");
    forbid(saw_after, "after=");
    forbid_server_keys();
    forbid_once();
  } else if (name == "slow") {
    site.kind = FaultSite::Kind::kSlow;
    require(saw_trial, "trial=");
    require(saw_ms, "ms=");
    forbid(saw_prob, "prob=");
    forbid(saw_mb, "mb=");
    forbid(saw_after, "after=");
    forbid_server_keys();
    forbid_once();
  } else if (name == "alloc") {
    site.kind = FaultSite::Kind::kAlloc;
    require(saw_trial, "trial=");
    require(saw_mb, "mb=");
    if (site.alloc_mb == 0 || site.alloc_mb > 4096) {
      fail("alloc: mb must be in [1,4096]");
    }
    forbid(saw_prob, "prob=");
    forbid(saw_ms, "ms=");
    forbid(saw_after, "after=");
    forbid_server_keys();
    forbid_once();
  } else if (name == "kill") {
    if (saw_after == saw_trial) {
      fail("kill takes exactly one of after= or trial=");
    }
    if (saw_after) {
      site.kind = FaultSite::Kind::kKill;
      if (site.after_records == 0) fail("kill: after must be >= 1");
    } else {
      site.kind = FaultSite::Kind::kKillTrial;
    }
    forbid(saw_prob, "prob=");
    forbid(saw_ms, "ms=");
    forbid(saw_mb, "mb=");
    forbid_server_keys();
    forbid_once();
  } else if (name == "segv") {
    site.kind = FaultSite::Kind::kSegvTrial;
    require(saw_trial, "trial=");
    forbid(saw_prob, "prob=");
    forbid(saw_ms, "ms=");
    forbid(saw_mb, "mb=");
    forbid(saw_after, "after=");
    forbid_server_keys();
  } else if (name == "oomtrial") {
    site.kind = FaultSite::Kind::kOomTrial;
    require(saw_trial, "trial=");
    require(saw_mb, "mb=");
    if (site.alloc_mb == 0) fail("oomtrial: mb must be >= 1");
    forbid(saw_prob, "prob=");
    forbid(saw_ms, "ms=");
    forbid(saw_after, "after=");
    forbid_server_keys();
  } else if (name == "drop") {
    site.kind = FaultSite::Kind::kDropConn;
    require(saw_conn, "conn=");
    if (site.conn_events == 0) fail("drop: conn must be >= 1");
    forbid(saw_trial, "trial=");
    forbid(saw_prob, "prob=");
    forbid(saw_ms, "ms=");
    forbid(saw_mb, "mb=");
    forbid(saw_after, "after=");
    forbid(saw_every, "every=");
    forbid(saw_store, "store=");
    forbid_once();
  } else if (name == "stallwrite") {
    site.kind = FaultSite::Kind::kStallWrite;
    require(saw_every, "every=");
    require(saw_ms, "ms=");
    if (site.every_events == 0) fail("stallwrite: every must be >= 1");
    forbid(saw_trial, "trial=");
    forbid(saw_prob, "prob=");
    forbid(saw_mb, "mb=");
    forbid(saw_after, "after=");
    forbid(saw_conn, "conn=");
    forbid(saw_store, "store=");
    forbid_once();
  } else if (name == "corrupt") {
    site.kind = FaultSite::Kind::kCorruptStore;
    require(saw_store, "store=");
    if (site.store_index == 0) fail("corrupt: store must be >= 1");
    forbid(saw_trial, "trial=");
    forbid(saw_prob, "prob=");
    forbid(saw_ms, "ms=");
    forbid(saw_mb, "mb=");
    forbid(saw_after, "after=");
    forbid(saw_conn, "conn=");
    forbid(saw_every, "every=");
    forbid_once();
  } else {
    fail("unknown site '" + name +
         "' (known: throw, slow, alloc, kill, segv, oomtrial, drop, "
         "stallwrite, corrupt)");
  }
  return site;
}

[[noreturn]] void kill_self() {
  std::raise(SIGKILL);
  // SIGKILL cannot be handled, so control never returns; the exit keeps
  // the noreturn contract honest.
  std::_Exit(137);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  if (spec.empty()) fail("empty spec");
  for (const std::string& part : split(spec, '+')) {
    if (part.empty()) fail("empty site in '" + spec + "'");
    plan.sites_.push_back(parse_site(part));
  }
  return plan;
}

void FaultPlan::fire_trial_start(std::size_t trial,
                                 std::uint64_t attempt) const {
  for (const FaultSite& site : sites_) {
    if (site.once && attempt != 0) continue;
    switch (site.kind) {
      case FaultSite::Kind::kThrow:
        if (site.trial == trial) {
          throw std::runtime_error("injected fault: throw at trial " +
                                   std::to_string(trial));
        }
        break;
      case FaultSite::Kind::kThrowProb:
        if (keyed_uniform(seed_, trial) < site.probability) {
          throw std::runtime_error(
              "injected fault: seed-keyed throw at trial " +
              std::to_string(trial));
        }
        break;
      case FaultSite::Kind::kSlow:
        if (site.trial == trial) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(site.sleep_ms));
        }
        break;
      case FaultSite::Kind::kAlloc:
        if (site.trial == trial) {
          // Touch one byte per page so the pressure is resident, then
          // release immediately — transient, not a leak.
          std::vector<char> pressure(site.alloc_mb << 20);
          volatile char* data = pressure.data();
          for (std::size_t i = 0; i < pressure.size(); i += 4096) {
            data[i] = 1;
          }
        }
        break;
      case FaultSite::Kind::kKillTrial:
        if (site.trial == trial) kill_self();
        break;
      case FaultSite::Kind::kSegvTrial:
        if (site.trial == trial) {
          // An honest wild write: SIGSEGV on a plain build, the
          // sanitizer's fatal report under ASan/TSan — either way the
          // process dies and the supervisor classifies the death.
          volatile int* target = reinterpret_cast<volatile int*>(8);
#if defined(__GNUC__)
          // Launder the pointer so the compiler cannot prove (and warn
          // about) the out-of-bounds store it is asked to emit.
          __asm__("" : "+r"(target));
#endif
          *target = 0;  // NOLINT
        }
        break;
      case FaultSite::Kind::kOomTrial:
        if (site.trial == trial) {
          // noexcept frame: an allocation the RLIMIT_AS budget denies
          // escapes as bad_alloc -> std::terminate -> SIGABRT.  When the
          // budget admits it, the pressure is transient and the trial
          // proceeds (same shape as the alloc site).
          [&]() noexcept {
            std::vector<char> pressure(site.alloc_mb << 20);
            volatile char* data = pressure.data();
            for (std::size_t i = 0; i < pressure.size(); i += 4096) {
              data[i] = 1;
            }
          }();
        }
        break;
      case FaultSite::Kind::kKill:
        break;  // fires on record, not on start
      case FaultSite::Kind::kDropConn:
      case FaultSite::Kind::kStallWrite:
      case FaultSite::Kind::kCorruptStore:
        break;  // server-side sites, fired by the daemon
    }
  }
}

void FaultPlan::fire_trial_recorded(std::size_t /*trial*/) {
  const std::size_t count = records_.fetch_add(1) + 1;
  for (const FaultSite& site : sites_) {
    if (site.kind == FaultSite::Kind::kKill && count == site.after_records) {
      kill_self();
    }
  }
}

bool FaultPlan::fire_event_write(std::size_t event_index) const {
  bool drop = false;
  for (const FaultSite& site : sites_) {
    if (site.kind == FaultSite::Kind::kStallWrite &&
        event_index % site.every_events == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(site.sleep_ms));
    } else if (site.kind == FaultSite::Kind::kDropConn &&
               event_index == site.conn_events) {
      drop = true;
    }
  }
  return drop;
}

void FaultPlan::fire_disk_store(std::size_t store_index,
                                const std::string& path) const {
  for (const FaultSite& site : sites_) {
    if (site.kind != FaultSite::Kind::kCorruptStore ||
        store_index != site.store_index) {
      continue;
    }
    // Clobber the trailing newline — the cache's torn-entry framing byte —
    // so readers see a torn write, exactly as a crash mid-rename would
    // leave it.
    std::FILE* file = std::fopen(path.c_str(), "r+b");
    if (file == nullptr) continue;
    if (std::fseek(file, -1, SEEK_END) == 0) {
      std::fputc('X', file);
    }
    std::fclose(file);
  }
}

const char* fault_inject_grammar() noexcept {
  return "inject grammar: SITE[+SITE...] where SITE is one of "
         "throw:trial=K | throw:prob=P | slow:trial=K,ms=M | "
         "alloc:trial=K,mb=M | kill:after=K | kill:trial=K | "
         "segv:trial=K[,once=1] | oomtrial:trial=K,mb=M[,once=1] | "
         "drop:conn=N | stallwrite:every=K,ms=M | corrupt:store=N";
}

}  // namespace megflood
