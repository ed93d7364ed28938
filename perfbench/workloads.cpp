#include "workloads.h"

#include <bit>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/threshold.h"
#include "fl/workloads.h"
#include "sched/population.h"

namespace perfbench {

namespace cf = cmfl::fl;
namespace cs = cmfl::sched;

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    // The digits-CNN shape of bench/bench_common.h (paper §V-A (1)), CMFL
    // with v_t = v0/sqrt(t), dense updates, serial commit.
    WorkloadSpec sim;
    sim.name = "sim_cnn";
    sim.runtime = Runtime::kSimulation;
    sim.rounds = 30;
    sim.clients = 60;
    sim.train_samples = 1800;
    sim.local_epochs = 4;
    sim.batch_size = 2;
    sim.learning_rate = 0.15;
    sim.threshold = 0.8;
    sim.eval_every = 5;
    sim.accuracy_floor = 0.6;
    v.push_back(sim);

    // 2,000 lazily materialized digits-MLP devices (dim 158,730), cohort 64
    // with first-K commit, warm pool 64, sign codec, 4 aggregator shards.
    WorkloadSpec eng;
    eng.name = "engine_sign";
    eng.runtime = Runtime::kEngine;
    eng.rounds = 26;
    eng.clients = 2000;
    eng.train_samples = 16000;
    eng.hidden = {1024};
    eng.partition = "sharded";  // two labels per device
    eng.local_epochs = 1;
    eng.batch_size = 2;
    eng.learning_rate = 0.5;
    eng.threshold = 0.3;
    eng.threshold_decays = false;
    eng.codec = "sign";
    eng.shards = 4;
    eng.cohort = 64;
    eng.warm_pool = 64;
    eng.accuracy_floor = 0.6;
    v.push_back(eng);

    return v;
  }();
  return specs;
}

WorkloadSpec find_workload(const std::string& name, bool smoke) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (w.name != name) continue;
    WorkloadSpec out = w;
    if (smoke) {
      out.rounds = 6;
      out.eval_every = 3;
      out.accuracy_floor = 0.0;
      if (out.runtime == Runtime::kEngine) {
        out.clients = 200;
        out.train_samples = 1600;
        out.hidden = {64};
        out.cohort = 16;
        out.warm_pool = 16;
      } else if (out.runtime == Runtime::kSimulation) {
        out.clients = 12;
        out.train_samples = 360;
        out.local_epochs = 1;
      }
    }
    return out;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

// Server-side test set of every workload: large enough that the final
// accuracy of one instance is not dominated by test-set sampling noise.
constexpr std::size_t kTestSamples = 1000;

cmfl::core::Schedule threshold_schedule(const WorkloadSpec& w) {
  return w.threshold_decays ? cmfl::core::Schedule::inv_sqrt(w.threshold)
                            : cmfl::core::Schedule::constant(w.threshold);
}

cf::SimulationOptions base_options(const WorkloadSpec& w, std::uint64_t seed) {
  cf::SimulationOptions o;
  o.local_epochs = w.local_epochs;
  o.batch_size = w.batch_size;
  o.learning_rate = cmfl::core::Schedule::inv_sqrt(w.learning_rate);
  o.max_iterations = w.rounds;
  o.eval_every = w.eval_every;
  o.codec.spec = w.codec;
  o.sharding.shards = w.shards;
  o.seed = seed;
  return o;
}

cf::DigitsCnnSpec cnn_spec(const WorkloadSpec& w, std::uint64_t seed) {
  cf::DigitsCnnSpec s;
  s.clients = w.clients;
  s.train_samples = w.train_samples;
  s.test_samples = kTestSamples;
  s.cnn.image_size = 12;
  s.cnn.conv1_filters = 4;
  s.cnn.conv2_filters = 8;
  s.cnn.fc_width = 32;
  s.digits.image_size = 12;
  s.digits.noise_stddev = 0.25f;
  s.digits.noise_density = 0.15f;
  s.seed = seed;
  return s;
}

cf::DigitsMlpSpec mlp_spec(const WorkloadSpec& w, std::uint64_t seed) {
  cf::DigitsMlpSpec s;
  s.clients = w.clients;
  s.train_samples = w.train_samples;
  s.test_samples = kTestSamples;
  s.hidden = w.hidden;
  s.partition = w.partition;
  s.seed = seed;
  return s;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Outcome outcome_of(const cf::SimulationResult& r) {
  Outcome o;
  o.rounds = r.history.size();
  o.uploads = r.total_rounds;
  o.uploaded_bytes = r.uploaded_bytes;
  o.final_accuracy = r.final_accuracy;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, r.final_params.data(), r.final_params.size() * sizeof(float));
  h = fnv1a(h, &o.uploads, sizeof o.uploads);
  h = fnv1a(h, &o.uploaded_bytes, sizeof o.uploaded_bytes);
  const auto acc_bits = std::bit_cast<std::uint64_t>(o.final_accuracy);
  o.digest = fnv1a(h, &acc_bits, sizeof acc_bits);
  return o;
}

std::uint64_t rejected(const cf::SimulationResult& r) {
  std::uint64_t n = 0;
  for (const auto& rec : r.history) n += rec.rejected;
  return n;
}

/// Decorators shared by every runtime for one trial.
struct Tracing {
  Tracing(Depth d, std::size_t rounds) : depth(d), clock(rounds) {
    // The middle round: past the cold-start round where every update is
    // relevant, and representative of steady state.
    if (d == Depth::kFull) capture.round = rounds / 2 + 1;
  }

  Recorder* recorder() { return depth == Depth::kFull ? &rec : nullptr; }

  std::unique_ptr<cmfl::core::UpdateFilter> filter(const WorkloadSpec& w) {
    auto inner = cmfl::core::make_filter("cmfl", threshold_schedule(w));
    if (depth == Depth::kNone || depth == Depth::kSetupOnly) return inner;
    return std::make_unique<TracedFilter>(
        std::move(inner), clock, recorder(),
        depth == Depth::kFull ? &capture : nullptr);
  }

  cf::GlobalEvaluator evaluator(cf::GlobalEvaluator inner) {
    return depth == Depth::kFull ? traced_evaluator(std::move(inner), rec)
                                 : inner;
  }

  std::vector<std::unique_ptr<cf::FlClient>> clients(
      std::vector<std::unique_ptr<cf::FlClient>> inner) {
    return depth == Depth::kFull ? traced_clients(std::move(inner), rec)
                                 : std::move(inner);
  }

  Depth depth;
  RoundClock clock;
  Recorder rec;
  Capture capture;
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;
};

double since_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

cf::SimulationResult run_simulation(const WorkloadSpec& w, std::uint64_t seed,
                                    Tracing& tr, Trial& t) {
  const std::int64_t t0 = now_ns();
  cf::Workload wl = cf::make_digits_cnn_workload(cnn_spec(w, seed));
  t.synth_s = since_s(t0);
  cf::FederatedSimulation sim(tr.clients(std::move(wl.clients)), tr.filter(w),
                              tr.evaluator(wl.evaluator),
                              base_options(w, seed));
  t.setup_s = since_s(t0);
  if (tr.depth == Depth::kSetupOnly) return {};

  tr.run_start_ns = now_ns();
  cf::SimulationResult r = sim.run();
  tr.run_end_ns = now_ns();

  for (const auto& rec : r.history) t.attempted += rec.participants;
  t.failed = rejected(r);
  return r;
}

cf::SimulationResult run_engine(const WorkloadSpec& w, std::uint64_t seed,
                                Tracing& tr, Trial& t) {
  const std::int64_t t0 = now_ns();
  cf::PopulationWorkload pw = cf::make_digits_mlp_population(mlp_spec(w, seed));
  t.synth_s = since_s(t0);

  cs::PopulationSpec ps;
  ps.devices = w.clients;
  ps.mean_on_fraction = 0.8;
  ps.duty_period_rounds = 12.0;
  ps.dropout_mid_round = 0.0;
  ps.max_resident = w.warm_pool;
  ps.seed = seed ^ 0x5EEDULL;
  cs::ClientFactory factory = tr.recorder() != nullptr
                                  ? traced_factory(pw.factory, tr.rec)
                                  : cs::ClientFactory(pw.factory);
  cs::Population population(ps, std::move(factory));

  cf::SimulationOptions opt = base_options(w, seed);
  opt.schedule.mode = cs::RoundMode::kOverSelect;
  opt.schedule.selection = cs::Selection::kAvailabilityAware;
  opt.schedule.sample_size = w.cohort;
  cs::RoundEngine engine(population, tr.filter(w), tr.evaluator(pw.evaluator),
                         opt);
  t.setup_s = since_s(t0);
  if (tr.depth == Depth::kSetupOnly) return {};

  tr.run_start_ns = now_ns();
  cs::EngineResult r = engine.run();
  tr.run_end_ns = now_ns();

  t.sched = r.sched;
  t.attempted = r.sched.invited;
  t.failed = r.sched.unavailable_invited + r.sched.mid_round_dropouts +
             rejected(r.sim);
  return std::move(r.sim);
}

}  // namespace

Trial run_trial(const WorkloadSpec& spec, std::uint64_t seed, Depth depth) {
  Trial t;
  t.seed = seed;
  Tracing tr(depth, spec.rounds);
  try {
    cf::SimulationResult r;
    switch (spec.runtime) {
      case Runtime::kSimulation: r = run_simulation(spec, seed, tr, t); break;
      case Runtime::kEngine: r = run_engine(spec, seed, tr, t); break;
    }
    if (depth == Depth::kSetupOnly) return t;
    t.run_s = static_cast<double>(tr.run_end_ns - tr.run_start_ns) / 1e9;
    t.outcome = outcome_of(r);
    if (depth == Depth::kRoundClock || depth == Depth::kFull) {
      t.periods_ms = tr.clock.periods_ms();
    }
    if (depth == Depth::kFull) {
      t.trace = tr.rec.summarize(tr.run_start_ns, tr.run_end_ns);
      // Keep as many captured uploads as the server committed that round
      // (over-selection trains and scores stragglers it then discards).
      std::size_t committed = 0;
      for (const auto& rec : r.history) {
        if (rec.iteration == tr.capture.round) committed = rec.uploads;
      }
      t.captured_uploads = std::move(tr.capture.uploads);
      if (t.captured_uploads.size() > committed) {
        t.captured_uploads.resize(committed);
      }
      t.captured_sample = std::move(tr.capture.sample);
      t.captured_global = std::move(tr.capture.global_model);
      t.captured_estimate = std::move(tr.capture.estimate);
      t.final_params = std::move(r.final_params);
      t.history = std::move(r.history);
    }
  } catch (const std::exception& e) {
    t.threw = true;
    t.error = e.what();
    const std::size_t per_round =
        spec.runtime == Runtime::kEngine ? spec.cohort : spec.clients;
    t.attempted = static_cast<std::uint64_t>(per_round) * spec.rounds;
    t.failed = t.attempted;
  }
  return t;
}

}  // namespace perfbench
