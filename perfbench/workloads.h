// The benchmark's closed-loop workloads and one trial of each.
//
// A trial builds a workload from the seed (setup), runs the runtime's public
// entry point once (fl::FederatedSimulation::run or sched::RoundEngine::run)
// and returns what the driver turns into metrics.  The workloads (see
// README.md for why each was chosen):
//
//   sim_cnn        FederatedSimulation, digits CNN, 60 clients   (nn-bound)
//   engine_sign    RoundEngine over-select, 2,000-device digits MLP, sign
//                  codec, 4 aggregator shards              (sched/codec-bound)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fl/simulation.h"
#include "sched/round_engine.h"
#include "trace.h"

namespace perfbench {

enum class Runtime { kSimulation, kEngine };

struct WorkloadSpec {
  std::string name;
  Runtime runtime = Runtime::kSimulation;
  std::size_t rounds = 0;
  /// Clients (simulation) or population devices (engine).
  std::size_t clients = 0;
  std::size_t train_samples = 0;
  /// Digits-MLP hidden widths (engine; the simulation trains the digits
  /// CNN).
  std::vector<std::size_t> hidden;
  /// Digits-MLP client partition: "label_sorted" | "sharded" | "iid".
  std::string partition = "label_sorted";
  int local_epochs = 1;
  std::size_t batch_size = 2;
  double learning_rate = 0.1;  // inv_sqrt schedule base
  /// CMFL relevance threshold: v0/sqrt(t) when decaying, else constant v0.
  double threshold = 0.8;
  bool threshold_decays = true;
  std::string codec = "dense";
  std::size_t shards = 0;
  std::size_t eval_every = 5;
  // Engine only.
  std::size_t cohort = 0;
  std::size_t warm_pool = 0;
  /// Correctness floor on the final test accuracy.
  double accuracy_floor = 0.0;
};

/// Workload instances one benchmark run covers: the seeds
/// sub_seed(seed, 0..kSubSeeds-1).  Distinct run seeds give disjoint sets.
inline constexpr std::size_t kSubSeeds = 4;

inline std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  return seed * kSubSeeds + i;
}

/// Every workload the driver can run; BENCHMARK.json declares each one.
const std::vector<WorkloadSpec>& all_workloads();

/// The named workload; `smoke` shrinks it to a few rounds for tests.
/// Throws std::invalid_argument on an unknown name.
WorkloadSpec find_workload(const std::string& name, bool smoke);

/// How much of the program a trial decorates.
enum class Depth {
  kNone,        // the runtime exactly as a user builds it (tests only)
  kRoundClock,  // filter wrapper stamping round boundaries (untraced run)
  kFull,        // every decorator plus an upload capture (traced run)
  kSetupOnly,   // build the workload and runtime, skip run(): set-up samples
};

/// The trajectory's deterministic outputs: equal across trials, runs and
/// decoration depths for one seed and kernel tier.
struct Outcome {
  std::size_t rounds = 0;
  std::uint64_t uploads = 0;         // committed uploads, the paper's Phi
  std::uint64_t uploaded_bytes = 0;  // SimulationResult::uploaded_bytes
  double final_accuracy = 0.0;
  std::uint64_t digest = 0;  // FNV-1a over final_params and the above

  bool operator==(const Outcome&) const = default;
};

struct Trial {
  std::uint64_t seed = 0;
  bool threw = false;
  std::string error;
  double setup_s = 0.0;
  double synth_s = 0.0;  // make_*_workload / make_*_population alone
  double run_s = 0.0;    // wall time of the run() call
  Outcome outcome;
  std::uint64_t attempted = 0;  // client invitations
  std::uint64_t failed = 0;
  std::vector<double> periods_ms;  // round periods
  cmfl::sched::ScheduleReport sched;  // engine workloads only
  // Traced trials only.
  std::optional<TraceSummary> trace;
  std::vector<std::vector<float>> captured_uploads;  // committed-count prefix
  std::vector<float> captured_sample;
  std::vector<float> captured_global;
  std::vector<float> captured_estimate;
  std::vector<float> final_params;
  std::vector<cmfl::fl::IterationRecord> history;
};

/// Runs one trial.  A throw inside setup or run() is caught and recorded
/// (threw, error, every attempt failed), never propagated.
Trial run_trial(const WorkloadSpec& spec, std::uint64_t seed, Depth depth);

}  // namespace perfbench
