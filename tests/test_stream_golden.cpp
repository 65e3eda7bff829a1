// Stream golden table: one pinned digest per registered model x process,
// so a change that moves any RNG draw of any sampler fails here instead of
// only in the two campaigns e2e_digest_pin covers.
//
// Every row runs one small campaign in-process (the registry's default
// parameters, n <= 256, 4 trials, seeds 1 and 2, one thread) and hashes
// the result_json_object bytes with FNV-1a.  The rows are enumerated from
// scenario_models() x kProcesses, plus explicit sparse-storage rows for
// the engines whose default storage at these sizes is dense.  A row the
// registry yields but the table lacks fails, and so does a table row no
// longer produced.
//
// After an intended stream change, re-record the table with
//   MEGFLOOD_RECORD_GOLDEN=1 build/test_stream_golden
// and commit tests/stream_golden.txt with the change that explains it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/scenario.hpp"

#ifndef MEGFLOOD_STREAM_GOLDEN
#error "MEGFLOOD_STREAM_GOLDEN must name tests/stream_golden.txt"
#endif

namespace megflood {
namespace {

const std::vector<std::string> kProcesses = {
    "flooding", "gossip:push", "gossip:pull", "gossip:pushpull",
    "kpush",    "radio",       "ttl"};

// Engines whose registry defaults resolve to dense storage at n <= 256;
// their sparse engines get rows of their own.
const std::vector<std::map<std::string, std::string>> kSparseModels = {
    {{"model", "general_edge_meg"}, {"link", "bursty"}, {"storage", "sparse"}},
    {{"model", "general_edge_meg"},
     {"link", "four_state"},
     {"storage", "sparse"}},
    {{"model", "het_edge_meg"}, {"storage", "sparse"}},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

ScenarioSpec row_spec(const std::map<std::string, std::string>& model,
                      const std::string& process, std::uint64_t seed) {
  ScenarioSpec spec;
  for (const auto& [key, value] : model) {
    if (key == "model") {
      spec.model = value;
    } else {
      spec.params[key] = value;
    }
  }
  spec.process = process;
  spec.trial.trials = 4;
  spec.trial.seed = seed;
  spec.trial.max_rounds = 2000;  // bounds the processes that can stall
  spec.trial.threads = 1;
  return spec;
}

std::vector<ScenarioSpec> all_rows() {
  std::vector<std::map<std::string, std::string>> models;
  for (const ScenarioModelInfo& info : scenario_models()) {
    models.push_back({{"model", info.name}});
  }
  models.insert(models.end(), kSparseModels.begin(), kSparseModels.end());
  std::vector<ScenarioSpec> rows;
  for (const auto& model : models) {
    for (const std::string& process : kProcesses) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        rows.push_back(row_spec(model, process, seed));
      }
    }
  }
  return rows;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// "<digest> <scenario cli>" per line, keyed by the cli.
std::map<std::string, std::string> load_table() {
  std::map<std::string, std::string> table;
  std::ifstream in(MEGFLOOD_STREAM_GOLDEN);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    table[line.substr(space + 1)] = line.substr(0, space);
  }
  return table;
}

TEST(StreamGolden, EveryModelAndProcessMatchesTheTable) {
  const std::vector<ScenarioSpec> rows = all_rows();
  std::map<std::string, std::string> got;
  for (const ScenarioSpec& spec : rows) {
    const ScenarioResult result = run_scenario(spec);
    got[scenario_to_cli(spec)] =
        hex(fnv1a(result_json_object(spec, result, result.warnings)));
  }
  ASSERT_EQ(got.size(), rows.size()) << "two rows share one cli";

  if (std::getenv("MEGFLOOD_RECORD_GOLDEN") != nullptr) {
    std::ofstream out(MEGFLOOD_STREAM_GOLDEN);
    out << "# FNV-1a of result_json_object per campaign; written by "
           "MEGFLOOD_RECORD_GOLDEN=1 test_stream_golden\n";
    for (const auto& [cli, digest] : got) out << digest << ' ' << cli << '\n';
    GTEST_SKIP() << "recorded " << got.size() << " rows";
  }

  const std::map<std::string, std::string> want = load_table();
  for (const auto& [cli, digest] : got) {
    const auto it = want.find(cli);
    if (it == want.end()) {
      ADD_FAILURE() << "no golden row for: " << cli;
    } else {
      EXPECT_EQ(digest, it->second) << "stream moved: " << cli;
    }
  }
  for (const auto& [cli, digest] : want) {
    EXPECT_TRUE(got.count(cli)) << "stale golden row: " << cli;
  }
}

}  // namespace
}  // namespace megflood
