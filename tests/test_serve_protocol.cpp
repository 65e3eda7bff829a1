// The serve wire protocol (serve/protocol.hpp) and its strict JSON
// reader (serve/json.hpp): every malformed input is a structured,
// position-bearing rejection — never a crash, never a silent guess.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace megflood::serve {
namespace {

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

JsonValue parse_ok(const std::string& text) {
  std::string error;
  const auto value = parse_json(text, error);
  EXPECT_TRUE(value.has_value()) << text << " -> " << error;
  return value.value_or(JsonValue{});
}

std::string parse_fail(const std::string& text) {
  std::string error;
  const auto value = parse_json(text, error);
  EXPECT_FALSE(value.has_value()) << text;
  EXPECT_FALSE(error.empty()) << text;
  return error;
}

TEST(ServeJson, ParsesScalarsArraysObjects) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok(" true ").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("-12.5e1").number, -125.0);
  EXPECT_EQ(parse_ok("\"a b\"").string, "a b");
  const JsonValue array = parse_ok("[1, \"x\", [2]]");
  ASSERT_EQ(array.array.size(), 3u);
  EXPECT_EQ(array.array[1].string, "x");
  const JsonValue object = parse_ok("{\"a\": 1, \"b\": {\"c\": []}}");
  ASSERT_NE(object.find("b"), nullptr);
  EXPECT_NE(object.find("b")->find("c"), nullptr);
  EXPECT_EQ(object.find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(parse_ok("\"a\\n\\t\\\"\\\\b\"").string, "a\n\t\"\\b");
  EXPECT_EQ(parse_ok("\"\\u0041\"").string, "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").string, "\xc3\xa9");          // é
  EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").string,
            "\xf0\x9f\x98\x80");                                  // emoji
}

TEST(ServeJson, RejectsMalformedInput) {
  const std::vector<std::string> bad = {
      "",
      "{",
      "}",
      "tru",
      "nulll",
      "[1,]",          // strict: no trailing content after ','-value-']'?
      "{\"a\":}",
      "{\"a\":1,}",
      "{\"a\":1 \"b\":2}",
      "{a:1}",                 // unquoted key
      "{\"a\":1}{\"b\":2}",    // trailing bytes
      "{\"a\":1} x",
      "{\"dup\":1,\"dup\":2}",
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"raw \n newline\"",
      "\"\\ud83d\"",           // unpaired high surrogate
      "\"\\ude00\"",           // unpaired low surrogate
      "007",                   // leading zeros
      "1.",                    // empty fraction
      "1e",                    // empty exponent
      "- 1",
      "1e999",                 // overflows double
  };
  for (const std::string& text : bad) parse_fail(text);
}

TEST(ServeJson, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  const std::string error = parse_fail(deep);
  EXPECT_NE(error.find("deeper"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ParsesEveryOp) {
  const Request submit = parse_request(
      "{\"op\":\"submit\",\"id\":\"j1\",\"args\":[\"--model=fixed\"],"
      "\"sweep\":\"n=8:16:8\"}");
  EXPECT_EQ(submit.op, RequestOp::kSubmit);
  EXPECT_EQ(submit.id, "j1");
  ASSERT_EQ(submit.args.size(), 1u);
  EXPECT_EQ(submit.args[0], "--model=fixed");
  EXPECT_EQ(submit.sweep, "n=8:16:8");

  EXPECT_EQ(parse_request("{\"op\":\"cancel\",\"id\":\"j1\"}").op,
            RequestOp::kCancel);
  EXPECT_EQ(parse_request("{\"op\":\"ping\"}").op, RequestOp::kPing);
  EXPECT_EQ(parse_request("{\"op\":\"stats\"}").op, RequestOp::kStats);
  EXPECT_EQ(parse_request("{\"op\":\"shutdown\"}").op, RequestOp::kShutdown);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const std::vector<std::string> bad = {
      "not json",
      "[1,2,3]",                               // not an object
      "\"submit\"",                            // not an object
      "{}",                                    // missing op
      "{\"op\":\"fly\"}",                      // unknown op
      "{\"op\":42}",                           // op wrong type
      "{\"op\":\"submit\"}",                   // missing id and args
      "{\"op\":\"submit\",\"id\":\"\",\"args\":[]}",       // empty id
      "{\"op\":\"submit\",\"id\":7,\"args\":[]}",          // id wrong type
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":\"x\"}",   // args not array
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[1]}",     // non-string arg
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"sweep\":3}",
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"extra\":1}",
      "{\"op\":\"cancel\"}",                   // missing id
      "{\"op\":\"cancel\",\"id\":\"j\",\"args\":[]}",      // unknown field
      "{\"op\":\"ping\",\"id\":\"j\"}",        // unknown field for ping
      "{\"op\":\"stats\",\"verbose\":true}",   // unknown field for stats
      "{\"op\":\"shutdown\",\"force\":true}",  // unknown field for shutdown
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)parse_request(line), ProtocolError) << line;
  }
  // Oversized id.
  EXPECT_THROW((void)parse_request("{\"op\":\"cancel\",\"id\":\"" +
                                   std::string(300, 'x') + "\"}"),
               ProtocolError);
}

// ---------------------------------------------------------------------------
// Event builders
// ---------------------------------------------------------------------------

TEST(ServeProtocol, EventsAreSingleLineJsonObjects) {
  SubJobReply fresh;
  fresh.key = "megfcamp1|seed=1|trials=2|--model=fixed";
  fresh.result_json = "{\"rounds_mean\": 3}";
  SubJobReply errored;
  errored.key = "k2";
  errored.error = "boom\nwith newline";
  SubJobReply cancelled;
  cancelled.key = "k3";
  cancelled.cancelled = true;

  const std::vector<std::string> lines = {
      event_error("", "bad"),
      event_error("j1", "bad \"quoted\"\n"),
      event_pong(),
      event_draining(),
      event_queued("j1", 4, 16, 2),
      event_running("j1"),
      event_trial_done("j1", 3, 16),
      event_done("j1", {fresh, errored, cancelled}, 1, 16, 16),
      event_cancelled("j1", 3, 16),
      event_stats(StatsSnapshot{}),
  };
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    std::string error;
    const auto parsed = parse_json(line, error);
    ASSERT_TRUE(parsed.has_value()) << line << " -> " << error;
    ASSERT_TRUE(parsed->is_object()) << line;
    EXPECT_NE(parsed->find("event"), nullptr) << line;
  }

  // The done event splices result bytes verbatim and tags each sub-job
  // with exactly one of result / error / cancelled.
  const std::string done = event_done("j1", {fresh, errored, cancelled}, 1,
                                      16, 16);
  EXPECT_NE(done.find("\"result\": {\"rounds_mean\": 3}"), std::string::npos)
      << done;
  EXPECT_NE(done.find("\"error\": "), std::string::npos);
  EXPECT_NE(done.find("\"cancelled\": true"), std::string::npos);

  // An error with no job id reports null, not "".
  EXPECT_NE(event_error("", "x").find("\"id\": null"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Deadlines and overload events (ISSUE 9)
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ParsesAndValidatesDeadline) {
  const Request with = parse_request(
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"deadline_s\":1.5}");
  EXPECT_DOUBLE_EQ(with.deadline_s, 1.5);
  const Request without =
      parse_request("{\"op\":\"submit\",\"id\":\"j\",\"args\":[]}");
  EXPECT_DOUBLE_EQ(without.deadline_s, 0.0);  // 0 = no deadline

  const std::vector<std::string> bad = {
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"deadline_s\":0}",
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"deadline_s\":-1}",
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"deadline_s\":\"5\"}",
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"deadline_s\":true}",
      "{\"op\":\"submit\",\"id\":\"j\",\"args\":[],\"deadline_s\":null}",
      "{\"op\":\"cancel\",\"id\":\"j\",\"deadline_s\":1}",  // submit-only
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)parse_request(line), ProtocolError) << line;
  }
}

TEST(ServeProtocol, RejectedEventCarriesReasonAndRetryHint) {
  const std::string line =
      event_rejected("j1", RejectReason::kQueueFull, 120, "");
  std::string error;
  const auto parsed = parse_json(line, error);
  ASSERT_TRUE(parsed.has_value()) << line << " -> " << error;
  EXPECT_EQ(parsed->find("event")->string, "rejected");
  EXPECT_EQ(parsed->find("reason")->string, "queue_full");
  EXPECT_DOUBLE_EQ(parsed->find("retry_after_ms")->number, 120.0);
  EXPECT_EQ(parsed->find("detail"), nullptr);  // omitted when empty

  const std::string fatal =
      event_rejected("j2", RejectReason::kTooLarge, 0, "5000 sub-jobs");
  const auto big = parse_json(fatal, error);
  ASSERT_TRUE(big.has_value()) << fatal;
  EXPECT_EQ(big->find("reason")->string, "too_large");
  EXPECT_EQ(big->find("detail")->string, "5000 sub-jobs");
  EXPECT_NE(event_rejected("j3", RejectReason::kDraining, 1000, "")
                .find("\"reason\": \"draining\""),
            std::string::npos);
}

TEST(ServeProtocol, DeadlineEventsRenderOnTheJobAndInTheDone) {
  const std::string line = event_deadline_exceeded("j1", 3, 16);
  std::string error;
  const auto parsed = parse_json(line, error);
  ASSERT_TRUE(parsed.has_value()) << line << " -> " << error;
  EXPECT_EQ(parsed->find("event")->string, "deadline_exceeded");
  EXPECT_DOUBLE_EQ(parsed->find("completed")->number, 3.0);
  EXPECT_DOUBLE_EQ(parsed->find("total")->number, 16.0);

  SubJobReply late;
  late.key = "k";
  late.deadline_exceeded = true;
  late.error = "trial exceeded its watchdog deadline";
  const std::string done = event_done("j1", {late}, 0, 3, 16);
  EXPECT_NE(done.find("\"deadline_exceeded\": true"), std::string::npos)
      << done;
}

TEST(ServeProtocol, StatsRenderQueueCountersAndPerClientRows) {
  StatsSnapshot stats;
  stats.jobs_rejected = 2;
  stats.deadline_exceeded = 1;
  stats.queued_subjobs = 5;
  stats.running_subjobs = 3;
  stats.max_queue = 64;
  stats.max_client_queue = 16;
  stats.cache_entries = 9;
  stats.cache_evictions = 4;
  ClientStats a;
  a.client = 7;
  a.jobs_active = 2;
  a.queued_subjobs = 4;
  a.in_flight = 1;
  stats.per_client.push_back(a);

  const std::string line = event_stats(stats);
  std::string error;
  const auto parsed = parse_json(line, error);
  ASSERT_TRUE(parsed.has_value()) << line << " -> " << error;
  EXPECT_DOUBLE_EQ(parsed->find("jobs_rejected")->number, 2.0);
  EXPECT_DOUBLE_EQ(parsed->find("deadline_exceeded")->number, 1.0);
  EXPECT_DOUBLE_EQ(parsed->find("queued_subjobs")->number, 5.0);
  EXPECT_DOUBLE_EQ(parsed->find("running_subjobs")->number, 3.0);
  EXPECT_DOUBLE_EQ(parsed->find("max_queue")->number, 64.0);
  EXPECT_DOUBLE_EQ(parsed->find("max_client_queue")->number, 16.0);
  const JsonValue* cache = parsed->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_DOUBLE_EQ(cache->find("entries")->number, 9.0);
  EXPECT_DOUBLE_EQ(cache->find("evictions")->number, 4.0);
  const JsonValue* per_client = parsed->find("per_client");
  ASSERT_NE(per_client, nullptr);
  ASSERT_EQ(per_client->array.size(), 1u);
  EXPECT_DOUBLE_EQ(per_client->array[0].find("client")->number, 7.0);
  EXPECT_DOUBLE_EQ(per_client->array[0].find("in_flight")->number, 1.0);
}

// ---------------------------------------------------------------------------
// Worker supervision events
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FailedEventCarriesCrashClassification) {
  SubJobReply crashed;
  crashed.key = "k1";
  crashed.error = "quarantined: worker crashed (SIGSEGV) 2 times";
  crashed.worker_crash = true;
  crashed.crash_signal = "SIGSEGV";
  crashed.crashes = 2;
  SubJobReply ok;
  ok.key = "k2";
  ok.result_json = "{\"rounds_mean\": 3}";

  const std::string line = event_failed("j1", {crashed, ok}, 0, 4, 8);
  std::string error;
  const auto parsed = parse_json(line, error);
  ASSERT_TRUE(parsed.has_value()) << line << " -> " << error;
  EXPECT_EQ(parsed->find("event")->string, "failed");
  EXPECT_EQ(parsed->find("id")->string, "j1");
  EXPECT_EQ(parsed->find("reason")->string, "worker_crash");
  EXPECT_EQ(parsed->find("signal")->string, "SIGSEGV");
  EXPECT_DOUBLE_EQ(parsed->find("crashes")->number, 2.0);
  EXPECT_DOUBLE_EQ(parsed->find("completed")->number, 4.0);
  EXPECT_DOUBLE_EQ(parsed->find("total")->number, 8.0);
  // results renders like done's: the healthy sub-job's bytes survive.
  const JsonValue* results = parsed->find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 2u);
  EXPECT_NE(line.find("\"result\": {\"rounds_mean\": 3}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"error\": "), std::string::npos);
}

TEST(ServeProtocol, StatsRenderWorkerRows) {
  StatsSnapshot stats;
  stats.worker_restarts = 3;
  stats.jobs_quarantined = 1;
  WorkerSlotStats worker;
  worker.slot = 0;
  worker.pid = 1234;
  worker.busy = true;
  worker.jobs = 7;
  stats.workers.push_back(worker);

  const std::string line = event_stats(stats);
  std::string error;
  const auto parsed = parse_json(line, error);
  ASSERT_TRUE(parsed.has_value()) << line << " -> " << error;
  EXPECT_EQ(parsed->find("isolation"), nullptr);  // one mode, no field
  EXPECT_DOUBLE_EQ(parsed->find("worker_restarts")->number, 3.0);
  EXPECT_DOUBLE_EQ(parsed->find("jobs_quarantined")->number, 1.0);
  const JsonValue* workers = parsed->find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array.size(), 1u);
  EXPECT_DOUBLE_EQ(workers->array[0].find("pid")->number, 1234.0);
  EXPECT_TRUE(workers->array[0].find("busy")->boolean);
  EXPECT_DOUBLE_EQ(workers->array[0].find("jobs")->number, 7.0);
}

}  // namespace
}  // namespace megflood::serve
