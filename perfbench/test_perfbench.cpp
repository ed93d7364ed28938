// The benchmark's own tests, at smoke sizes:
//   * decorators are transparent: a fully decorated run of every workload
//     (FederatedSimulation included) reproduces the undecorated outcome
//     bit for bit;
//   * every workload reports exactly the metric names and units of the
//     schema, all finite, and its traced phases tile the run() wall;
//   * the schema agrees with BENCHMARK.json;
//   * the driver refuses unknown options and workloads.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

const char* kWorkdir = PERFBENCH_TEST_WORKDIR;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The string value of `"key": "<value>"` at or after `from`.
std::string value_after(const std::string& text, const std::string& key,
                        std::size_t from) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  return text.substr(start, text.find('"', start) - start);
}

void expect_matches_json(const std::vector<pb::MetricDef>& defs,
                         const std::string& section) {
  std::size_t count = 0;
  for (std::size_t at = section.find("\"name\": \"");
       at != std::string::npos; at = section.find("\"name\": \"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, defs.size());
  for (const pb::MetricDef& d : defs) {
    const std::size_t at =
        section.find("\"name\": \"" + std::string(d.name) + "\"");
    ASSERT_NE(at, std::string::npos) << d.name;
    EXPECT_EQ(value_after(section, "unit", at), d.unit) << d.name;
    EXPECT_EQ(value_after(section, "better", at), d.better) << d.name;
  }
}

}  // namespace

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, DecoratorsAreBitTransparent) {
  const pb::WorkloadSpec spec = pb::find_workload(GetParam(), true);
  const pb::Trial bare = pb::run_trial(spec, 3, pb::Depth::kNone);
  const pb::Trial clocked = pb::run_trial(spec, 3, pb::Depth::kRoundClock);
  const pb::Trial full = pb::run_trial(spec, 3, pb::Depth::kFull);
  ASSERT_FALSE(bare.threw) << bare.error;
  ASSERT_FALSE(clocked.threw) << clocked.error;
  ASSERT_FALSE(full.threw) << full.error;
  EXPECT_EQ(bare.outcome, clocked.outcome);
  EXPECT_EQ(bare.outcome, full.outcome);
  EXPECT_EQ(bare.outcome.rounds, spec.rounds);
  EXPECT_GT(bare.outcome.uploads, 0u);
  EXPECT_EQ(full.failed, 0u);
  // Another seed is another workload instance.
  const pb::Trial other = pb::run_trial(spec, 4, pb::Depth::kNone);
  EXPECT_NE(bare.outcome.digest, other.outcome.digest);
}

TEST_P(EveryWorkload, ReportsTheSchemaAndTilesTheWall) {
  const pb::WorkloadSpec spec = pb::find_workload(GetParam(), true);
  std::vector<pb::Trial> plain, traced, setups;
  for (std::size_t i = 0; i < pb::kSubSeeds; ++i) {
    const std::uint64_t seed = pb::sub_seed(5, i);
    setups.push_back(pb::run_trial(spec, seed, pb::Depth::kSetupOnly));
    plain.push_back(pb::run_trial(spec, seed, pb::Depth::kRoundClock));
    traced.push_back(pb::run_trial(spec, seed, pb::Depth::kFull));
    ASSERT_FALSE(traced.back().threw) << traced.back().error;
    EXPECT_EQ(plain.back().outcome, traced.back().outcome);
    EXPECT_EQ(plain.back().periods_ms.size(), spec.rounds - 1);
  }

  for (const pb::Trial& t : traced) {
    ASSERT_TRUE(t.trace.has_value());
    const pb::TraceSummary& s = *t.trace;
    EXPECT_EQ(s.rounds, spec.rounds);
    EXPECT_LT(pb::tiling_error(s), 0.01);
    EXPECT_GT(s.client_phase_s, 0.0);
    EXPECT_GT(s.server_phase_s, 0.0);
    EXPECT_EQ(s.server_phases_ms.size(), spec.rounds - 1);
    EXPECT_EQ(s.filter_calls, s.train_calls);
  }

  const auto e2e = pb::end_to_end(plain, setups, 1.0);
  ASSERT_EQ(e2e.size(), pb::end_to_end_defs().size());
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    EXPECT_EQ(e2e[i].name, pb::end_to_end_defs()[i].name);
    EXPECT_EQ(e2e[i].unit, pb::end_to_end_defs()[i].unit);
    EXPECT_TRUE(std::isfinite(e2e[i].value)) << e2e[i].name;
    EXPECT_GT(e2e[i].value, 0.0) << e2e[i].name;  // end-to-end is never 0
  }

  const pb::Replays rp =
      pb::replay(spec, pb::median_trial(traced), kWorkdir);
  const auto layers = pb::per_layer(spec, plain, traced, rp);
  ASSERT_EQ(layers.size(), pb::per_layer_defs().size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(layers[i].name, pb::per_layer_defs()[i].name);
    EXPECT_EQ(layers[i].unit, pb::per_layer_defs()[i].unit);
    EXPECT_TRUE(std::isfinite(layers[i].value)) << layers[i].name;
  }
  EXPECT_GT(rp.codec_encode_us, 0.0);
  EXPECT_GT(rp.checkpoint_write_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Smoke, EveryWorkload,
                         ::testing::Values("sim_cnn", "engine_sign"));

TEST(Schema, MatchesBenchmarkJson) {
  const std::string json = slurp(PERFBENCH_JSON);
  ASSERT_FALSE(json.empty());
  const std::size_t e2e = json.find("\"end_to_end\"");
  const std::size_t layers = json.find("\"per_layer\"");
  ASSERT_NE(e2e, std::string::npos);
  ASSERT_NE(layers, std::string::npos);
  ASSERT_LT(e2e, layers);
  expect_matches_json(pb::end_to_end_defs(), json.substr(e2e, layers - e2e));
  expect_matches_json(pb::per_layer_defs(), json.substr(layers));
  // Every declared workload is one the driver knows.
  const std::string declared =
      json.substr(json.find("\"workloads\""), e2e - json.find("\"workloads\""));
  std::size_t names = 0;
  for (std::size_t at = declared.find("\"name\": \"");
       at != std::string::npos; at = declared.find("\"name\": \"", at + 1)) {
    const std::size_t start = at + 9;
    const std::string name =
        declared.substr(start, declared.find('"', start) - start);
    EXPECT_NO_THROW(pb::find_workload(name, false)) << name;
    ++names;
  }
  EXPECT_GE(names, 2u);
}

TEST(Config, UnknownWorkloadThrows) {
  EXPECT_THROW(pb::find_workload("sim_mlp", false), std::invalid_argument);
}

TEST(Config, DriverRejectsBadOptionsLoudly) {
  const std::string driver = PERFBENCH_DRIVER;
  const std::string ok =
      " --seed 1 --seconds 1 --trace 0 --workdir " + std::string(kWorkdir);
  const auto status = [&](const std::string& args) {
    const int raw = std::system((driver + args + " >/dev/null 2>&1").c_str());
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  };
  EXPECT_EQ(status(" --workload sim_cnn --bogus 1" + ok), 2);
  EXPECT_EQ(status(" --workload nope" + ok), 2);
  EXPECT_EQ(status(" --workload sim_cnn --smoke" + ok), 2);  // no such flag
  EXPECT_EQ(status(" --workload sim_cnn --seed 1 --seconds 121 --trace 0 "
                   "--workdir x"),
            2);
  EXPECT_EQ(status(" --workload sim_cnn --seed 1 --seconds 1 --trace 2 "
                   "--workdir x"),
            2);
  EXPECT_EQ(status(" --workload sim_cnn --seed 1"), 2);  // missing options
  EXPECT_EQ(status(" --workload sim_cnn --seed -1 --seconds 1 --trace 0 "
                   "--workdir x"),
            2);
}
