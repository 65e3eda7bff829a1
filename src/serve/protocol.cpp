#include "serve/protocol.hpp"

#include <cmath>

#include "core/format.hpp"
#include "serve/json.hpp"

namespace megflood::serve {

namespace {

// Job ids appear in every event and in log lines; a pathological id must
// not become a resource problem.
constexpr std::size_t kMaxIdLength = 256;

[[noreturn]] void bad(const std::string& why) { throw ProtocolError(why); }

// Closed-world field check: every member of the request object must be in
// `allowed` for the given op.
void reject_unknown_fields(const JsonValue& object, const char* op,
                           std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object.object) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      bad("unknown field '" + key + "' for op '" + op + "'");
    }
  }
}

std::string required_id(const JsonValue& object) {
  const JsonValue* id = object.find("id");
  if (!id) bad("missing 'id'");
  if (!id->is_string()) bad("'id' must be a string");
  if (id->string.empty()) bad("'id' must not be empty");
  if (id->string.size() > kMaxIdLength) {
    bad("'id' longer than " + std::to_string(kMaxIdLength) + " bytes");
  }
  return id->string;
}

}  // namespace

Request parse_request(const std::string& line) {
  std::string error;
  const auto parsed = parse_json(line, error);
  if (!parsed) bad("malformed JSON: " + error);
  if (!parsed->is_object()) bad("request must be a JSON object");

  const JsonValue* op = parsed->find("op");
  if (!op) bad("missing 'op'");
  if (!op->is_string()) bad("'op' must be a string");

  Request request;
  if (op->string == "submit") {
    request.op = RequestOp::kSubmit;
    reject_unknown_fields(*parsed, "submit",
                          {"op", "id", "args", "sweep", "deadline_s"});
    request.id = required_id(*parsed);
    const JsonValue* args = parsed->find("args");
    if (!args) bad("submit: missing 'args'");
    if (!args->is_array()) bad("submit: 'args' must be an array of strings");
    for (const JsonValue& arg : args->array) {
      if (!arg.is_string()) {
        bad("submit: 'args' must be an array of strings");
      }
      request.args.push_back(arg.string);
    }
    if (const JsonValue* sweep = parsed->find("sweep")) {
      if (!sweep->is_string()) bad("submit: 'sweep' must be a string");
      request.sweep = sweep->string;
    }
    if (const JsonValue* deadline = parsed->find("deadline_s")) {
      if (!deadline->is_number() || !std::isfinite(deadline->number) ||
          deadline->number <= 0.0) {
        bad("submit: 'deadline_s' must be a positive finite number");
      }
      request.deadline_s = deadline->number;
    }
  } else if (op->string == "cancel") {
    request.op = RequestOp::kCancel;
    reject_unknown_fields(*parsed, "cancel", {"op", "id"});
    request.id = required_id(*parsed);
  } else if (op->string == "ping") {
    request.op = RequestOp::kPing;
    reject_unknown_fields(*parsed, "ping", {"op"});
  } else if (op->string == "stats") {
    request.op = RequestOp::kStats;
    reject_unknown_fields(*parsed, "stats", {"op"});
  } else if (op->string == "shutdown") {
    request.op = RequestOp::kShutdown;
    reject_unknown_fields(*parsed, "shutdown", {"op"});
  } else {
    bad("unknown op '" + op->string +
        "' (known: submit, cancel, ping, stats, shutdown)");
  }
  return request;
}

std::string event_error(const std::string& id, const std::string& message) {
  std::string out = "{\"event\": \"error\", \"id\": ";
  out += id.empty() ? "null" : json_quote(id);
  out += ", \"message\": " + json_quote(message) + "}";
  return out;
}

std::string event_rejected(const std::string& id, RejectReason reason,
                           std::uint64_t retry_after_ms,
                           const std::string& detail) {
  const char* name = "queue_full";
  switch (reason) {
    case RejectReason::kQueueFull:
      name = "queue_full";
      break;
    case RejectReason::kDraining:
      name = "draining";
      break;
    case RejectReason::kTooLarge:
      name = "too_large";
      break;
  }
  std::string out = "{\"event\": \"rejected\", \"id\": " + json_quote(id) +
                    ", \"reason\": \"" + name +
                    "\", \"retry_after_ms\": " + std::to_string(retry_after_ms);
  if (!detail.empty()) out += ", \"detail\": " + json_quote(detail);
  out += "}";
  return out;
}

std::string event_deadline_exceeded(const std::string& id,
                                    std::size_t completed, std::size_t total) {
  return "{\"event\": \"deadline_exceeded\", \"id\": " + json_quote(id) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"total\": " + std::to_string(total) + "}";
}

std::string event_pong() { return "{\"event\": \"pong\"}"; }

std::string event_draining() { return "{\"event\": \"draining\"}"; }

std::string event_queued(const std::string& id, std::size_t subjobs,
                         std::size_t total_trials, std::size_t cache_hits) {
  return "{\"event\": \"queued\", \"id\": " + json_quote(id) +
         ", \"subjobs\": " + std::to_string(subjobs) +
         ", \"total_trials\": " + std::to_string(total_trials) +
         ", \"cache_hits\": " + std::to_string(cache_hits) + "}";
}

std::string event_running(const std::string& id) {
  return "{\"event\": \"running\", \"id\": " + json_quote(id) + "}";
}

std::string event_trial_done(const std::string& id, std::size_t completed,
                             std::size_t total) {
  return "{\"event\": \"trial_done\", \"id\": " + json_quote(id) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"total\": " + std::to_string(total) + "}";
}

namespace {

// Shared by done and failed: per-sub-job outcomes, result bytes spliced
// verbatim so cache hits stay byte-identical.
std::string render_results(const std::vector<SubJobReply>& replies) {
  std::string out = "[";
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const SubJobReply& reply = replies[i];
    if (i) out += ", ";
    out += "{\"key\": " + json_quote(reply.key);
    if (reply.deadline_exceeded) {
      out += ", \"deadline_exceeded\": true";
    } else if (reply.cancelled) {
      out += ", \"cancelled\": true";
    } else if (!reply.error.empty()) {
      out += ", \"error\": " + json_quote(reply.error);
    } else {
      out += ", \"cached\": ";
      out += reply.cached ? "true" : "false";
      // The result object bytes come from result_json_object — already
      // JSON, spliced verbatim so cache hits stay byte-identical.
      out += ", \"result\": " + reply.result_json;
    }
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string event_done(const std::string& id,
                       const std::vector<SubJobReply>& replies,
                       std::size_t cache_hits, std::size_t completed,
                       std::size_t total) {
  return "{\"event\": \"done\", \"id\": " + json_quote(id) +
         ", \"subjobs\": " + std::to_string(replies.size()) +
         ", \"cache_hits\": " + std::to_string(cache_hits) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"total\": " + std::to_string(total) +
         ", \"results\": " + render_results(replies) + "}";
}

std::string event_failed(const std::string& id,
                         const std::vector<SubJobReply>& replies,
                         std::size_t cache_hits, std::size_t completed,
                         std::size_t total) {
  // The classified crash of the first quarantined sub-job headlines the
  // event; per-sub-job detail lives in results like any other terminal.
  std::string signal = "unknown";
  std::uint64_t crashes = 0;
  for (const SubJobReply& reply : replies) {
    if (reply.worker_crash) {
      signal = reply.crash_signal;
      crashes = reply.crashes;
      break;
    }
  }
  return "{\"event\": \"failed\", \"id\": " + json_quote(id) +
         ", \"reason\": \"worker_crash\", \"signal\": " + json_quote(signal) +
         ", \"crashes\": " + std::to_string(crashes) +
         ", \"subjobs\": " + std::to_string(replies.size()) +
         ", \"cache_hits\": " + std::to_string(cache_hits) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"total\": " + std::to_string(total) +
         ", \"results\": " + render_results(replies) + "}";
}

std::string event_cancelled(const std::string& id, std::size_t completed,
                            std::size_t total) {
  return "{\"event\": \"cancelled\", \"id\": " + json_quote(id) +
         ", \"completed\": " + std::to_string(completed) +
         ", \"total\": " + std::to_string(total) + "}";
}

std::string event_stats(const StatsSnapshot& stats) {
  std::string out =
      "{\"event\": \"stats\", \"clients\": " + std::to_string(stats.clients) +
      ", \"jobs_active\": " + std::to_string(stats.jobs_active) +
      ", \"jobs_done\": " + std::to_string(stats.jobs_done) +
      ", \"jobs_cancelled\": " + std::to_string(stats.jobs_cancelled) +
      ", \"jobs_failed\": " + std::to_string(stats.jobs_failed) +
      ", \"jobs_rejected\": " + std::to_string(stats.jobs_rejected) +
      ", \"deadline_exceeded\": " + std::to_string(stats.deadline_exceeded) +
      ", \"subjobs_run\": " + std::to_string(stats.subjobs_run) +
      ", \"trials_done\": " + std::to_string(stats.trials_done) +
      ", \"queued_subjobs\": " + std::to_string(stats.queued_subjobs) +
      ", \"running_subjobs\": " + std::to_string(stats.running_subjobs) +
      ", \"max_queue\": " + std::to_string(stats.max_queue) +
      ", \"max_client_queue\": " + std::to_string(stats.max_client_queue) +
      ", \"cache\": {\"entries\": " + std::to_string(stats.cache_entries) +
      ", \"hits\": " + std::to_string(stats.cache_hits) +
      ", \"misses\": " + std::to_string(stats.cache_misses) +
      ", \"evictions\": " + std::to_string(stats.cache_evictions) +
      "}, \"worker_restarts\": " + std::to_string(stats.worker_restarts) +
      ", \"jobs_quarantined\": " + std::to_string(stats.jobs_quarantined) +
      ", \"workers\": [";
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const WorkerSlotStats& worker = stats.workers[i];
    if (i) out += ", ";
    out += "{\"slot\": " + std::to_string(worker.slot) +
           ", \"pid\": " + std::to_string(worker.pid) + ", \"busy\": " +
           (worker.busy ? "true" : "false") +
           ", \"jobs\": " + std::to_string(worker.jobs) + "}";
  }
  out += "], \"per_client\": [";
  for (std::size_t i = 0; i < stats.per_client.size(); ++i) {
    const ClientStats& client = stats.per_client[i];
    if (i) out += ", ";
    out += "{\"client\": " + std::to_string(client.client) +
           ", \"jobs_active\": " + std::to_string(client.jobs_active) +
           ", \"queued_subjobs\": " + std::to_string(client.queued_subjobs) +
           ", \"in_flight\": " + std::to_string(client.in_flight) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace megflood::serve
