// perfbench_driver: runs one workload for a time budget and prints its
// metrics as one JSON line.
//
//   perfbench_driver --workload sim_cnn --seed 1 --seconds 15 --trace 0
//                    --workdir .bench_build/work
//
// --trace 0 repeats untraced trials (set-up + run()) until the budget is
// spent and reports the end-to-end metrics.  --trace 1 alternates untraced
// and fully decorated trials and reports the per-layer metrics, the tracing
// overhead between the two, and the server-side replays.  Every trial of a
// run must produce the same deterministic outcome; the line carries its
// digest so perfbench/run.py can compare runs with each other.
//
// Configuration is loud: an unknown flag, a missing one or a malformed
// value exits with status 2 before anything runs, and so does a build that
// is not Release with NDEBUG.  --seconds is at most kMaxSeconds, so a run
// always ends well inside the time perfbench/run.py allows it.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"
#include "tensor/kernels.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string workdir;
};

constexpr std::uint64_t kMaxSeconds = 120;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --workdir "
               "<dir>\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& s) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used);
  } catch (const std::exception&) {
    usage_error(key + " wants a non-negative integer, got '" + s + "'");
  }
  if (used != s.size() || s.front() == '-') {
    usage_error(key + " wants a non-negative integer, got '" + s + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  const std::set<std::string> valued = {"--workload", "--seed", "--seconds",
                                        "--trace", "--workdir"};
  std::map<std::string, std::string> kv;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (valued.count(key) == 0) usage_error("unknown option '" + key + "'");
    if (i + 1 >= argc) usage_error(key + " needs a value");
    if (!kv.emplace(key, argv[++i]).second) {
      usage_error(key + " given twice");
    }
  }
  for (const auto& key : valued) {
    if (kv.count(key) == 0) usage_error("missing " + key);
  }
  a.workload = kv["--workload"];
  a.seed = parse_u64("--seed", kv["--seed"]);
  if (a.seed >= (std::uint64_t{1} << 60)) usage_error("--seed must be < 2^60");
  const std::uint64_t secs = parse_u64("--seconds", kv["--seconds"]);
  if (secs < 1 || secs > kMaxSeconds) {
    usage_error("--seconds must be in [1, " + std::to_string(kMaxSeconds) +
                "]");
  }
  a.seconds = static_cast<double>(secs);
  const std::uint64_t trace = parse_u64("--trace", kv["--trace"]);
  if (trace > 1) usage_error("--trace must be 0 or 1");
  a.trace = static_cast<int>(trace);
  a.workdir = kv["--workdir"];
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  pb::WorkloadSpec spec;
  try {
    spec = pb::find_workload(args.workload, false);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
#ifndef NDEBUG
  usage_error("refusing to measure a build without NDEBUG");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    usage_error(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
                " build");
  }

  // A run covers kSubSeeds workload instances derived from --seed, one trial
  // each per cycle, so the per-seed outputs (accuracy, bytes) are averaged
  // and every timing pools the same mix of instances.  Cycles repeat until
  // the budget is spent; enough of them that the pooled round periods put
  // >= 10 samples beyond p90.
  const std::size_t periods_per_cycle =
      (spec.rounds > 1 ? spec.rounds - 1 : 1) * pb::kSubSeeds;
  const std::size_t min_cycles =
      (100 + periods_per_cycle - 1) / periods_per_cycle;
  constexpr std::size_t kMaxCycles = 250;

  std::vector<pb::Trial> plain, traced, setups;
  const std::int64_t begin = pb::now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(pb::now_ns() - begin) / 1e9;
  };
  for (std::size_t cycle = 1;; ++cycle) {
    for (std::size_t i = 0; i < pb::kSubSeeds; ++i) {
      const std::uint64_t seed = pb::sub_seed(args.seed, i);
      if (args.trace == 0) {
        // An extra set-up sample per trial: set-up is short, so its median
        // needs more samples than the run() timings do.
        setups.push_back(pb::run_trial(spec, seed, pb::Depth::kSetupOnly));
      }
      plain.push_back(pb::run_trial(spec, seed, pb::Depth::kRoundClock));
      if (args.trace == 1) {
        traced.push_back(pb::run_trial(spec, seed, pb::Depth::kFull));
      }
    }
    // Stop at the cycle boundary nearest the budget.
    const double per_cycle = elapsed_s() / static_cast<double>(cycle);
    if (cycle >= kMaxCycles ||
        (cycle >= min_cycles && elapsed_s() + 0.5 * per_cycle > args.seconds)) {
      break;
    }
  }
  const double measured_s = elapsed_s();
  const double rss = peak_rss_mb();

  // --- correctness: every trial of one instance, traced or not, must
  // reproduce the same outcome ---
  std::vector<std::string> errors;
  std::map<std::uint64_t, pb::Outcome> outcomes;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t periods = 0;
  for (const auto* set : {&setups, &plain, &traced}) {
    for (const pb::Trial& t : *set) {
      attempted += t.attempted;
      failed += t.failed;
      periods += t.periods_ms.size();
      if (t.threw) {
        errors.push_back("trial threw: " + t.error);
        continue;
      }
      if (set == &setups) continue;  // set-up only: no outcome
      const auto [it, fresh] = outcomes.emplace(t.seed, t.outcome);
      if (!fresh && !(it->second == t.outcome)) {
        errors.push_back("trials of seed " + std::to_string(t.seed) +
                         " disagree on the deterministic outcome");
      }
      if (t.trace && pb::tiling_error(*t.trace) > 0.01) {
        errors.push_back("phases do not tile the run wall within 1%");
      }
    }
  }
  for (const auto& [seed, o] : outcomes) {
    if (o.rounds != spec.rounds) {
      errors.push_back("seed " + std::to_string(seed) + " committed " +
                       std::to_string(o.rounds) + " of " +
                       std::to_string(spec.rounds) + " rounds");
    }
    if (o.final_accuracy < spec.accuracy_floor) {
      errors.push_back("seed " + std::to_string(seed) + ": final_accuracy " +
                       json_num(o.final_accuracy) + " below the floor " +
                       json_num(spec.accuracy_floor));
    }
  }
  if (args.trace == 0 && periods < 100) {
    errors.push_back("fewer than 100 round periods: p90 is unsupported");
  }

  std::vector<pb::Metric> metrics;
  if (!outcomes.empty()) {
    try {
      if (args.trace == 0) {
        metrics = pb::end_to_end(plain, setups, rss);
      } else {
        const pb::Trial& rep = pb::median_trial(traced);
        const pb::Replays rp = pb::replay(spec, rep, args.workdir);
        metrics = pb::per_layer(spec, plain, traced, rp);
      }
    } catch (const std::exception& e) {
      errors.push_back(std::string("metrics: ") + e.what());
    }
  }
  for (const pb::Metric& m : metrics) {
    if (!std::isfinite(m.value)) errors.push_back("non-finite " + m.name);
  }
  if (errors.empty() && metrics.empty()) errors.push_back("no metrics");

  // --- one JSON line ---
  std::ostringstream os;
  os << "{\"workload\": " << json_str(spec.name) << ", \"seed\": "
     << args.seed << ", \"trace\": " << args.trace
     << ", \"correct\": " << (errors.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"outcomes\": {";
  for (auto it = outcomes.begin(); it != outcomes.end(); ++it) {
    const pb::Outcome& o = it->second;
    os << (it == outcomes.begin() ? "" : ", ") << "\"" << it->first
       << "\": {\"digest\": " << json_str(hex64(o.digest))
       << ", \"uploads\": " << o.uploads
       << ", \"uploaded_bytes\": " << o.uploaded_bytes
       << ", \"final_accuracy\": " << json_num(o.final_accuracy) << "}";
  }
  os << "}, \"trials\": {\"untraced\": " << plain.size()
     << ", \"traced\": " << traced.size() << "}"
     << ", \"round_periods\": " << periods
     << ", \"measured_s\": " << json_num(measured_s)
     << ", \"provenance\": {\"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"ndebug\": true, \"simd_level\": "
     << json_str(cmfl::tensor::kernels::simd_level())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_str(cpu_model()) << "}"
     << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? ", " : "") << json_str(errors[i]);
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_str(metrics[i].name)
       << ": {\"value\": " << json_num(metrics[i].value)
       << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}
