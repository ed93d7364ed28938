// Ready-made federated workloads: dataset synthesis + partitioning + client
// construction + server-side evaluator, bundled so benches and examples are
// a few lines each.
//
// Workload naming follows the paper:
//   * digits_cnn — "MNIST digit recognition model using CNN" (§V-A (1)),
//     synthetic digits, label-sorted non-IID partition.
//   * nwp_lstm   — "Next-Word-Prediction model using LSTM" (§V-A (2)),
//     role-conditioned synthetic dialogue, one client per speaking role.
//   * digits_mlp — small MLP variant for fast tests and the quickstart.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "data/partition.h"
#include "data/synth_digits.h"
#include "data/synth_text.h"
#include "fl/simulation.h"

namespace cmfl::fl {

/// A fully wired federated workload.  `storage` owns the datasets that the
/// clients reference; keep the Workload alive for as long as its clients or
/// evaluator are in use.
struct Workload {
  std::vector<std::unique_ptr<FlClient>> clients;
  GlobalEvaluator evaluator;
  std::shared_ptr<void> storage;
  std::size_t param_count = 0;
  std::string description;
};

struct DigitsCnnSpec {
  std::size_t clients = 50;
  std::size_t train_samples = 2000;
  std::size_t test_samples = 500;
  nn::CnnSpec cnn;                 // image_size must match digits.image_size
  data::SynthDigitsSpec digits;
  std::uint64_t seed = 42;
};

Workload make_digits_cnn_workload(const DigitsCnnSpec& spec);

struct DigitsMlpSpec {
  std::size_t clients = 20;
  std::size_t train_samples = 800;
  std::size_t test_samples = 200;
  std::vector<std::size_t> hidden = {32};
  data::SynthDigitsSpec digits;
  std::uint64_t seed = 42;
  /// "label_sorted" (paper protocol) | "sharded" | "iid"
  std::string partition = "label_sorted";
};

Workload make_digits_mlp_workload(const DigitsMlpSpec& spec);

/// A workload re-shaped for a sched::Population: the shared dataset,
/// partition and initial weights are built once, and `factory(k)`
/// materializes device k on demand — bit-identical to the k-th eager
/// make_digits_mlp_workload client (same shard, same initial weights, same
/// RNG stream), so a lazily materialized engine run trains the exact
/// clients the eager simulation would.  The factory keeps `storage` alive
/// through its captures.  A materialized device is state only (shard, RNG):
/// it leases a model from the workload's ModelPool when it trains and
/// returns it when parked, so models built track the training jobs that
/// run at once, not the resident clients (DESIGN.md §11).
struct PopulationWorkload {
  std::function<std::unique_ptr<FlClient>(std::uint64_t)> factory;
  /// Models the pool has built so far.
  std::function<std::size_t()> models_built;
  GlobalEvaluator evaluator;
  std::shared_ptr<void> storage;
  std::size_t param_count = 0;
  std::string description;
};

PopulationWorkload make_digits_mlp_population(const DigitsMlpSpec& spec);

struct NwpLstmSpec {
  data::SynthTextSpec text;       // roles == clients
  nn::LstmLmSpec lm;              // vocab is overwritten from the corpus
  double test_fraction = 0.2;     // windows held out per role for the server
  std::uint64_t seed = 42;
};

Workload make_nwp_lstm_workload(const NwpLstmSpec& spec);

}  // namespace cmfl::fl
