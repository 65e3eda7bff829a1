// Tests for trace recording, replay, and (de)serialization.

#include <gtest/gtest.h>

#include <sstream>

#include "core/flooding.hpp"
#include "core/trace.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

TEST(RecordTrace, LengthAndFidelity) {
  TwoStateEdgeMEG meg(16, {0.2, 0.2}, 5);
  const std::size_t first_edges = meg.snapshot().num_edges();
  const auto trace = record_trace(meg, 10);
  ASSERT_EQ(trace.size(), 11u);
  EXPECT_EQ(trace.front().num_edges(), first_edges);
  EXPECT_EQ(trace.back().num_edges(), meg.snapshot().num_edges());
}

TEST(RecordTrace, ReplayMatchesFloodingOnSamePath) {
  // Flooding on the recorded trace must equal flooding on the original
  // realization.
  TwoStateEdgeMEG a(24, {0.1, 0.3}, 9);
  TwoStateEdgeMEG b(24, {0.1, 0.3}, 9);
  const FloodResult live = flood(a, 0, 500);
  ASSERT_TRUE(live.completed);
  ScriptedDynamicGraph replay(record_trace(b, live.rounds), false);
  const FloodResult replayed = flood(replay, 0, 500);
  ASSERT_TRUE(replayed.completed);
  EXPECT_EQ(live.rounds, replayed.rounds);
  EXPECT_EQ(live.informed_counts, replayed.informed_counts);
}

TEST(TraceIo, RoundTrip) {
  TwoStateEdgeMEG meg(12, {0.3, 0.3}, 3);
  const auto trace = record_trace(meg, 5);
  std::stringstream ss;
  write_trace(ss, trace);
  const auto parsed = read_trace(ss, 12);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) {
    EXPECT_EQ(parsed[t].edges(), trace[t].edges()) << "snapshot " << t;
  }
}

TEST(TraceIo, RejectsMalformed) {
  {
    std::stringstream ss("0 1\n");  // edge before header
    EXPECT_THROW((void)read_trace(ss, 4), std::invalid_argument);
  }
  {
    std::stringstream ss("t 0\n0 9\n");  // node out of range
    EXPECT_THROW((void)read_trace(ss, 4), std::invalid_argument);
  }
  {
    std::stringstream ss("t 5\n");  // wrong index
    EXPECT_THROW((void)read_trace(ss, 4), std::invalid_argument);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW((void)read_trace(ss, 4), std::invalid_argument);
  }
  {
    std::stringstream ss("t 0\n1 1\n");  // self loop
    EXPECT_THROW((void)read_trace(ss, 4), std::invalid_argument);
  }
}

TEST(TraceIo, EmptySnapshotsSurvive) {
  std::vector<Snapshot> trace;
  trace.emplace_back(3);
  Snapshot s(3);
  s.add_edge(0, 2);
  trace.push_back(std::move(s));
  trace.emplace_back(3);
  std::stringstream ss;
  write_trace(ss, trace);
  const auto parsed = read_trace(ss, 3);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].num_edges(), 0u);
  EXPECT_EQ(parsed[1].num_edges(), 1u);
  EXPECT_EQ(parsed[2].num_edges(), 0u);
}

}  // namespace
}  // namespace megflood
