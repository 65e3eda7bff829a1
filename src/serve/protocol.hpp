#pragma once

// The megflood_serve wire protocol (ISSUE 8; full grammar in
// docs/serving.md): newline-delimited JSON in both directions.  Each
// request line is one strict JSON object; each reply line is one event
// object.  Request parsing is closed-world — an unknown op or an unknown
// field for a known op is a ProtocolError, never silently ignored, the
// same hard-error discipline the scenario registry applies to model
// parameters.
//
// Requests:
//   {"op":"submit","id":<string>,"args":[<scenario arg>...]
//                 [,"sweep":"key=a:b:step[,key=a:b:step...]"]
//                 [,"deadline_s":<positive number>]}
//   {"op":"cancel","id":<string>}
//   {"op":"ping"} | {"op":"stats"} | {"op":"shutdown"}
//
// Events (all carry "event"; job events carry "id"):
//   error | rejected | queued | running | trial_done | deadline_exceeded |
//   done | cancelled | failed | pong | stats | draining
//
// Submit args use exactly the scenario CLI grammar (core/scenario.hpp),
// so everything the registry validates for megflood_run is validated for
// a served job the same way, by the same code.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace megflood::serve {

// A malformed or inadmissible request line; the server answers with an
// error event and keeps the connection open.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RequestOp { kSubmit, kCancel, kPing, kStats, kShutdown };

struct Request {
  RequestOp op = RequestOp::kPing;
  std::string id;                 // submit / cancel
  std::vector<std::string> args;  // submit: scenario CLI args
  std::string sweep;              // submit: optional multi-key sweep spec
  double deadline_s = 0.0;        // submit: optional per-job deadline
                                  // (0 = none; always positive when set)
};

// Parses one request line.  Throws ProtocolError on malformed JSON, a
// non-object line, an unknown op, a missing/empty/oversized id, unknown
// fields, or wrong field types.
Request parse_request(const std::string& line);

// -------------------------------------------------------------------------
// Event lines (no trailing newline; json_quote guarantees no raw newline
// can appear inside one).
// -------------------------------------------------------------------------

// One resolved sub-job inside a done event: exactly one of result_json
// (the cached-or-fresh result object bytes), error, or cancelled.
struct SubJobReply {
  std::string key;          // campaign_key_string of the sub-job
  bool cached = false;      // answered from the result cache
  bool cancelled = false;
  bool deadline_exceeded = false;
  std::string result_json;  // "{...}" from result_json_object
  std::string error;
  // Worker supervision (docs/serving.md#isolation--supervision): this
  // campaign killed its worker past the crash limit and was quarantined.
  // `error` carries the human-readable line; these fields feed the
  // terminal `failed` event.
  bool worker_crash = false;
  std::string crash_signal;   // WorkerDeath::describe(), e.g. "SIGSEGV"
  std::uint64_t crashes = 0;  // total worker deaths charged to the campaign
};

// Why a submission was turned away at admission.  The reason string in
// the rejected event is the enum name, and retry_after_ms tells a
// well-behaved client how long to back off before retrying (0 = the
// condition is permanent for this request, e.g. too_large).
enum class RejectReason { kQueueFull, kDraining, kTooLarge };

std::string event_error(const std::string& id, const std::string& message);
std::string event_rejected(const std::string& id, RejectReason reason,
                           std::uint64_t retry_after_ms,
                           const std::string& detail);
std::string event_deadline_exceeded(const std::string& id,
                                    std::size_t completed, std::size_t total);
std::string event_pong();
std::string event_draining();
std::string event_queued(const std::string& id, std::size_t subjobs,
                         std::size_t total_trials, std::size_t cache_hits);
std::string event_running(const std::string& id);
std::string event_trial_done(const std::string& id, std::size_t completed,
                             std::size_t total);
std::string event_done(const std::string& id,
                       const std::vector<SubJobReply>& replies,
                       std::size_t cache_hits, std::size_t completed,
                       std::size_t total);
std::string event_cancelled(const std::string& id, std::size_t completed,
                            std::size_t total);
// Terminal event for a job with at least one quarantined (worker-killing)
// sub-job: reason=worker_crash plus the classified signal and crash count
// of the first such sub-job; `results` renders like done's, so the other
// sub-jobs' outcomes are not lost.
std::string event_failed(const std::string& id,
                         const std::vector<SubJobReply>& replies,
                         std::size_t cache_hits, std::size_t completed,
                         std::size_t total);

struct ClientStats {
  std::uint64_t client = 0;  // scheduler-assigned client id
  std::uint64_t jobs_active = 0;
  std::uint64_t queued_subjobs = 0;
  std::uint64_t in_flight = 0;  // sub-jobs of this client running right now
};

// One worker-pool slot.
struct WorkerSlotStats {
  std::uint64_t slot = 0;
  std::uint64_t pid = 0;   // 0 = no live worker in this slot
  bool busy = false;       // a sub-job is dispatched to it right now
  std::uint64_t jobs = 0;  // sub-jobs dispatched to this slot's workers
};

struct StatsSnapshot {
  std::uint64_t clients = 0;
  std::uint64_t jobs_active = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t subjobs_run = 0;
  std::uint64_t trials_done = 0;
  std::uint64_t queued_subjobs = 0;
  std::uint64_t running_subjobs = 0;
  std::uint64_t max_queue = 0;         // 0 = unbounded
  std::uint64_t max_client_queue = 0;  // 0 = unbounded
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t worker_restarts = 0;   // workers respawned after a death
  std::uint64_t jobs_quarantined = 0;  // campaigns past the crash limit
  std::vector<WorkerSlotStats> workers;  // pool slots, then run_one()'s
  std::vector<ClientStats> per_client;
};

std::string event_stats(const StatsSnapshot& stats);

}  // namespace megflood::serve
