// End-to-end training-step benchmarks (google-benchmark): per-step wall
// time and steps/sec for the paper's three workload shapes (digits MLP,
// digits CNN, NWP LSTM-LM), plus one full small federated round.
//
// BM_TrainStep_CNN_NaiveRef flips every Conv2d in the model to the retained
// naive reference loops (set_reference_impl), so a single run shows the
// im2col/GEMM speedup directly; `bench/run_train.sh` records the tracked
// baseline BENCH_train.json from a Release build and checks the ratio.
//
// The binary stamps the build type into the JSON as custom context
// `cmfl_build_type` (the library's own library_build_type key reports how
// *libbenchmark* was compiled, not this binary).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "core/filter.h"
#include "fl/simulation.h"
#include "fl/workloads.h"
#include "nn/conv2d.h"
#include "nn/feed_forward.h"
#include "nn/lstm_lm.h"
#include "tensor/kernels.h"
#include "util/rng.h"

using namespace cmfl;

namespace {

/// Pins the kernel tier for one benchmark body; un-suffixed rows measure the
/// bit-exact tier (the historical baseline), *_Fast rows the AVX2/FMA tier.
struct TierScope {
  explicit TierScope(tensor::kernels::Tier t) { tensor::kernels::set_tier(t); }
  ~TierScope() { tensor::kernels::set_tier(tensor::kernels::Tier::kAuto); }
};

void fill_normal(tensor::Matrix& x, util::Rng& rng) {
  for (float& v : x.flat()) v = rng.normal_f(0.0f, 1.0f);
}

std::vector<int> cyclic_labels(std::size_t n, std::size_t classes) {
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<int>(i % classes);
  return y;
}

void run_train_steps(benchmark::State& state, nn::FeedForward& model,
                     const tensor::Matrix& x, const std::vector<int>& y) {
  model.train_batch(x, y, 0.05f);  // warm-up: size all workspaces
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_batch(x, y, 0.05f));
  }
  state.SetItemsProcessed(state.iterations());  // items/s == steps/s
}

// --- Digits MLP (paper-scale fully connected model) ---

void BM_TrainStep_MLP(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kExact);
  util::Rng rng(1);
  nn::FeedForward model = nn::make_mlp(64, {32}, 10, rng);
  tensor::Matrix x(32, 64);
  fill_normal(x, rng);
  run_train_steps(state, model, x, cyclic_labels(32, 10));
}
BENCHMARK(BM_TrainStep_MLP);

// --- Digits CNN: im2col/GEMM path vs the retained naive loops ---

nn::FeedForward make_bench_cnn(util::Rng& rng) {
  nn::CnnSpec spec;  // defaults: 12×12 input, 5×5 kernels, 8/16 filters
  return nn::make_digits_cnn(spec, rng);
}

void set_conv_reference_mode(nn::FeedForward& model, bool ref) {
  nn::Sequential& net = model.net();
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&net.layer(i))) {
      conv->set_reference_impl(ref);
    }
  }
}

void BM_TrainStep_CNN(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kExact);
  util::Rng rng(2);
  nn::FeedForward model = make_bench_cnn(rng);
  tensor::Matrix x(8, model.input_dim());
  fill_normal(x, rng);
  run_train_steps(state, model, x, cyclic_labels(8, 10));
}
BENCHMARK(BM_TrainStep_CNN);

// The vector-tier CNN step: the same model with every kernel dispatched to
// the AVX2/FMA tier.  run_train.sh holds this row to its own (higher)
// steps/sec floor, separate from the bit-exact ≥2× old-vs-new check.
void BM_TrainStep_CNN_Fast(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kFast);
  util::Rng rng(2);
  nn::FeedForward model = make_bench_cnn(rng);
  tensor::Matrix x(8, model.input_dim());
  fill_normal(x, rng);
  run_train_steps(state, model, x, cyclic_labels(8, 10));
}
BENCHMARK(BM_TrainStep_CNN_Fast);

void BM_TrainStep_CNN_NaiveRef(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kExact);
  util::Rng rng(2);
  nn::FeedForward model = make_bench_cnn(rng);
  set_conv_reference_mode(model, true);
  tensor::Matrix x(8, model.input_dim());
  fill_normal(x, rng);
  run_train_steps(state, model, x, cyclic_labels(8, 10));
}
BENCHMARK(BM_TrainStep_CNN_NaiveRef);

// The digits CNN as the sim_cnn benchmark workload trains it: fast tier,
// 4/8 filters, fc 32, batches of 2.  At this shape every conv GEMM is thin
// and the step is dominated by im2col, the sparse gradient scatter, ReLU and
// MaxPool, so this row tracks the loops the larger-batch rows above hide.
void BM_TrainStep_CNN_SimShape(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kFast);
  util::Rng rng(2);
  nn::CnnSpec spec;
  spec.conv1_filters = 4;
  spec.conv2_filters = 8;
  spec.fc_width = 32;
  nn::FeedForward model = nn::make_digits_cnn(spec, rng);
  tensor::Matrix x(2, model.input_dim());
  fill_normal(x, rng);
  run_train_steps(state, model, x, cyclic_labels(2, 10));
}
BENCHMARK(BM_TrainStep_CNN_SimShape);

// --- NWP LSTM language model ---

void BM_TrainStep_LSTM(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kExact);
  util::Rng rng(3);
  nn::LstmLmSpec spec;
  spec.vocab = 64;
  spec.embed_dim = 16;
  spec.hidden_dim = 32;
  spec.layers = 1;
  nn::LstmLm model(spec);
  model.init_params(rng);

  nn::SeqBatch x;
  x.batch = 8;
  x.seq_len = 8;
  x.tokens.resize(x.batch * x.seq_len);
  for (int& t : x.tokens) t = static_cast<int>(rng.uniform_index(64));
  std::vector<int> next(x.batch);
  for (int& t : next) t = static_cast<int>(rng.uniform_index(64));

  model.train_batch(x, next, 0.05f);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_batch(x, next, 0.05f));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainStep_LSTM);

// --- One full small federated round (client training + CMFL filter +
// aggregation), including model/shard setup per iteration (untimed) ---

void BM_FederatedRound_MLP(benchmark::State& state) {
  TierScope tier(tensor::kernels::Tier::kExact);
  for (auto _ : state) {
    state.PauseTiming();
    fl::DigitsMlpSpec spec;
    spec.clients = 8;
    spec.train_samples = 240;
    spec.test_samples = 80;
    spec.hidden = {16};
    spec.digits.image_size = 8;
    spec.seed = 7;
    fl::Workload w = fl::make_digits_mlp_workload(spec);
    fl::SimulationOptions opt;
    opt.local_epochs = 1;
    opt.batch_size = 4;
    opt.learning_rate = core::Schedule::constant(0.1);
    opt.max_iterations = 1;  // exactly one round
    opt.eval_every = 0;
    opt.seed = 9;
    fl::FederatedSimulation sim(
        std::move(w.clients),
        core::make_filter("cmfl", core::Schedule::constant(0.5)), w.evaluator,
        opt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations());  // rounds/s
}
BENCHMARK(BM_FederatedRound_MLP);

}  // namespace

#ifndef CMFL_BUILD_TYPE
#define CMFL_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  // library_build_type in the JSON describes libbenchmark, not this binary;
  // run_train.sh gates on this key instead.
  benchmark::AddCustomContext("cmfl_build_type", CMFL_BUILD_TYPE);
#ifdef NDEBUG
  benchmark::AddCustomContext("cmfl_ndebug", "1");
#else
  benchmark::AddCustomContext("cmfl_ndebug", "0");
#endif
  // SIMD provenance: whether the *_Fast rows actually ran the AVX2/FMA tier
  // on this host or silently fell back to the exact kernels.
  benchmark::AddCustomContext("cmfl_simd", tensor::kernels::simd_level());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
