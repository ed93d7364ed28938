// Workload builders: wiring, shapes, evaluator sanity, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>

#include "alloc_counter.h"
#include "core/filter.h"
#include "fl/checkpoint.h"
#include "fl/workloads.h"
#include "sched/population.h"
#include "sched/round_engine.h"

namespace cmfl::fl {
namespace {

TEST(DigitsMlpWorkload, BuildsConsistentClients) {
  DigitsMlpSpec spec;
  spec.clients = 6;
  spec.train_samples = 120;
  spec.test_samples = 40;
  spec.digits.image_size = 8;
  Workload w = make_digits_mlp_workload(spec);
  ASSERT_EQ(w.clients.size(), 6u);
  for (const auto& c : w.clients) {
    EXPECT_EQ(c->param_count(), w.param_count);
    EXPECT_GT(c->local_samples(), 0u);
  }
  EXPECT_NE(w.description.find("digits_mlp"), std::string::npos);
}

TEST(DigitsMlpWorkload, ClientsStartIdentical) {
  DigitsMlpSpec spec;
  spec.clients = 3;
  spec.train_samples = 60;
  spec.test_samples = 20;
  spec.digits.image_size = 8;
  Workload w = make_digits_mlp_workload(spec);
  std::vector<float> p0(w.param_count), p1(w.param_count);
  w.clients[0]->get_params(p0);
  w.clients[1]->get_params(p1);
  EXPECT_EQ(p0, p1);
}

TEST(DigitsMlpWorkload, EvaluatorScoresRandomModelAtChance) {
  DigitsMlpSpec spec;
  spec.clients = 4;
  spec.train_samples = 80;
  spec.test_samples = 200;
  spec.digits.image_size = 8;
  Workload w = make_digits_mlp_workload(spec);
  std::vector<float> params(w.param_count);
  w.clients[0]->get_params(params);
  const nn::EvalResult eval = w.evaluator(params);
  EXPECT_EQ(eval.samples, 200u);
  EXPECT_GT(eval.accuracy, 0.0);
  EXPECT_LT(eval.accuracy, 0.5);  // untrained: near 10% chance
}

TEST(DigitsMlpWorkload, PartitionKinds) {
  DigitsMlpSpec spec;
  spec.clients = 5;
  spec.train_samples = 100;
  spec.test_samples = 20;
  spec.digits.image_size = 8;
  for (const char* kind : {"label_sorted", "sharded", "iid"}) {
    spec.partition = kind;
    EXPECT_NO_THROW(make_digits_mlp_workload(spec)) << kind;
  }
  spec.partition = "bogus";
  EXPECT_THROW(make_digits_mlp_workload(spec), std::invalid_argument);
}

TEST(DigitsMlpPopulation, FactoryMatchesEagerClientsExactly) {
  DigitsMlpSpec spec;
  spec.clients = 5;
  spec.train_samples = 100;
  spec.test_samples = 30;
  spec.digits.image_size = 8;
  Workload eager = make_digits_mlp_workload(spec);
  PopulationWorkload lazy = make_digits_mlp_population(spec);
  EXPECT_EQ(lazy.param_count, eager.param_count);

  // Identical initial weights, identical RNG stream: one local training
  // pass must land both on bit-equal parameters.
  const auto expect_matches_eager = [&](FlClient& made, std::size_t k) {
    EXPECT_EQ(made.param_count(), eager.param_count);
    EXPECT_EQ(made.local_samples(), eager.clients[k]->local_samples());
    std::vector<float> a(eager.param_count);
    std::vector<float> b(eager.param_count);
    made.get_params(b);
    eager.clients[k]->get_params(a);
    EXPECT_EQ(a, b) << "initial params differ for device " << k;
    eager.clients[k]->train_local(1, 2, 0.1f);
    made.train_local(1, 2, 0.1f);
    eager.clients[k]->get_params(a);
    made.get_params(b);
    EXPECT_EQ(a, b) << "post-training params differ for device " << k;
    EXPECT_EQ(made.mutable_state(), eager.clients[k]->mutable_state());
  };

  // A materialized device holds no model until it trains.
  auto first = lazy.factory(0);
  ASSERT_TRUE(first);
  EXPECT_EQ(lazy.models_built(), 0u);
  expect_matches_eager(*first, 0);
  EXPECT_EQ(lazy.models_built(), 1u);
  first->park();  // its trained model goes back to the pool

  // Every later device leases that model, whose weights the last training
  // pass moved away from the initial ones.
  for (const std::size_t k : {2u, 4u, 3u}) {
    auto made = lazy.factory(k);
    ASSERT_TRUE(made);
    expect_matches_eager(*made, k);
    made->park();
  }
  EXPECT_EQ(lazy.models_built(), 1u);

  // The two evaluators are the same model over the same test set.
  std::vector<float> params(eager.param_count);
  eager.clients[0]->get_params(params);
  const auto ea = eager.evaluator(params);
  const auto eb = lazy.evaluator(params);
  EXPECT_EQ(ea.accuracy, eb.accuracy);
  EXPECT_EQ(ea.loss, eb.loss);
  EXPECT_THROW(lazy.factory(spec.clients), std::out_of_range);
}

TEST(DigitsMlpPopulation, ParkedClientReportsInitialParamsAndTrainsLikeANewOne) {
  DigitsMlpSpec spec;
  spec.clients = 4;
  spec.train_samples = 80;
  spec.test_samples = 20;
  spec.digits.image_size = 8;
  PopulationWorkload lazy = make_digits_mlp_population(spec);
  std::vector<float> initial(lazy.param_count);
  lazy.factory(0)->get_params(initial);
  EXPECT_EQ(lazy.models_built(), 0u);  // reading parameters leases nothing

  auto parked = lazy.factory(1);
  const std::vector<float> broadcast(lazy.param_count, 0.25f);
  parked->set_params(broadcast);
  parked->train_local(1, 2, 0.1f);
  const std::uint64_t steps = parked->lifetime_steps();
  parked->park();
  parked->park();  // idempotent
  std::vector<float> p(lazy.param_count);
  parked->get_params(p);
  EXPECT_EQ(p, initial);
  EXPECT_EQ(parked->lifetime_steps(), steps);

  // Its next pass trains from the initial parameters on the stream it kept,
  // bit for bit like a new client restored to the same state — although it
  // now leases the model its own last pass left trained.
  auto fresh = lazy.factory(1);
  fresh->restore_mutable_state(parked->mutable_state());
  EXPECT_EQ(parked->train_local(1, 2, 0.1f), fresh->train_local(1, 2, 0.1f));
  std::vector<float> q(lazy.param_count);
  parked->get_params(p);
  fresh->get_params(q);
  EXPECT_EQ(p, q);
  EXPECT_EQ(lazy.models_built(), 2u);

  // A size mismatch binds nothing.
  auto other = lazy.factory(2);
  EXPECT_THROW(other->set_params(std::vector<float>(3)),
               std::invalid_argument);
  other->get_params(p);
  EXPECT_EQ(p, initial);
  EXPECT_EQ(lazy.models_built(), 2u);
}

TEST(DigitsMlpPopulation, MaterializationAllocatesLessThanAModel) {
  DigitsMlpSpec spec;
  spec.clients = 4;
  spec.train_samples = 80;
  spec.test_samples = 20;
  spec.digits.image_size = 8;
  spec.hidden = {128};
  PopulationWorkload lazy = make_digits_mlp_population(spec);
  const std::size_t model_bytes = lazy.param_count * sizeof(float);

  const std::vector<float> broadcast(lazy.param_count);

  // The factory builds device state only, even with the pool empty.
  testing::reset_alloc_count();
  auto first = lazy.factory(0);
  EXPECT_LT(testing::alloc_bytes(), model_bytes);
  testing::reset_alloc_count();
  first->set_params(broadcast);
  EXPECT_GE(testing::alloc_bytes(), model_bytes);  // the first lease builds
  first->train_local(1, 2, 0.1f);                  // sizes its workspaces
  first->park();

  // A later device leases the parked model: its install and its training
  // pass allocate less than one model.
  auto second = lazy.factory(1);
  testing::reset_alloc_count();
  second->set_params(broadcast);
  second->train_local(1, 2, 0.1f);
  EXPECT_LT(testing::alloc_bytes(), model_bytes);
  EXPECT_EQ(lazy.models_built(), 1u);
}

TEST(DigitsMlpPopulation, ModelsBuiltNeverExceedTrainingThreadsPlusOne) {
  DigitsMlpSpec spec;
  spec.clients = 40;
  spec.train_samples = 320;
  spec.test_samples = 40;
  spec.digits.image_size = 8;
  spec.hidden = {16};
  spec.partition = "sharded";

  // Serial churn through the warm pool: cohorts of 6, at most 3 kept warm.
  // Release parks, so one model serves every device.
  {
    PopulationWorkload w = make_digits_mlp_population(spec);
    sched::PopulationSpec ps;
    ps.devices = spec.clients;
    ps.max_resident = 3;
    sched::Population population(ps, w.factory);
    const std::vector<float> broadcast(w.param_count);
    for (std::uint64_t round = 0; round < 12; ++round) {
      for (std::uint64_t j = 0; j < 6; ++j) {
        const std::uint64_t d = (round * 7 + j * 5) % spec.clients;
        FlClient& c = population.acquire(d);
        c.set_params(broadcast);
        c.train_local(1, 4, 0.1f);
        population.release(d);
      }
    }
    EXPECT_GT(population.evictions(), 0u);
    EXPECT_GE(population.peak_resident(), 4u);
    EXPECT_EQ(w.models_built(), 1u);
  }

  // The engine's parallel phases: pool jobs lease and park concurrently.
  PopulationWorkload w = make_digits_mlp_population(spec);
  sched::PopulationSpec ps;
  ps.devices = spec.clients;
  ps.max_resident = 4;
  ps.seed = 3;
  sched::Population population(ps, w.factory);
  SimulationOptions opt;
  opt.max_iterations = 6;
  opt.eval_every = 3;
  opt.batch_size = 4;
  opt.parallel = true;
  opt.codec.spec = "sign";
  opt.schedule.mode = sched::RoundMode::kOverSelect;
  opt.schedule.selection = sched::Selection::kAvailabilityAware;
  opt.schedule.sample_size = 10;
  opt.schedule.target_reports = 7;
  sched::RoundEngine engine(population,
                            std::make_unique<core::AcceptAllFilter>(),
                            w.evaluator, opt);
  const sched::EngineResult r = engine.run();
  // At most one lease per job running at once: no more jobs than threads,
  // nor than the cohort.
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_GT(r.sched.evictions, 0u);
  EXPECT_GE(w.models_built(), 1u);
  EXPECT_LE(w.models_built(),
            std::min<std::size_t>(threads, opt.schedule.sample_size) + 1);
  EXPECT_GT(r.sched.peak_resident_clients, opt.schedule.sample_size);
}

// Leased models must not leak one device's state into another's run:
// every schedule of jobs onto threads, shard count and a kill-and-resume
// must retrace the serial single-master trajectory bit for bit.
TEST(DigitsMlpPopulation, EngineRunsAreBitIdenticalAcrossThreadsShardsAndResume) {
  DigitsMlpSpec spec;
  spec.clients = 40;
  spec.train_samples = 320;
  spec.test_samples = 40;
  spec.digits.image_size = 8;
  spec.hidden = {16};
  spec.partition = "sharded";
  const std::string path = ::testing::TempDir() + "ck_mlp_population.bin";

  struct Run {
    SimulationResult sim;
    std::size_t models_built = 0;
  };
  const auto run = [&](bool parallel, std::size_t shards,
                       std::size_t crash_at) {
    SimulationOptions opt;
    opt.max_iterations = 8;
    opt.eval_every = 4;
    opt.batch_size = 4;
    opt.learning_rate = core::Schedule::constant(0.2);
    opt.parallel = parallel;
    opt.sharding.shards = shards;
    opt.codec.spec = "sign";
    opt.schedule.mode = sched::RoundMode::kOverSelect;
    opt.schedule.selection = sched::Selection::kAvailabilityAware;
    opt.schedule.sample_size = 10;
    opt.schedule.target_reports = 7;
    opt.seed = 77;
    sched::PopulationSpec ps;
    ps.devices = spec.clients;
    ps.mean_on_fraction = 0.8;
    ps.duty_period_rounds = 4.0;
    ps.max_resident = 4;
    ps.seed = 5;
    const auto engine_run = [&](const SimulationOptions& o,
                                const TrainerCheckpoint* resume) {
      PopulationWorkload w = make_digits_mlp_population(spec);
      sched::Population population(ps, w.factory);
      sched::RoundEngine engine(
          population, core::make_filter("cmfl", core::Schedule::constant(0.5)),
          w.evaluator, o);
      Run r;
      r.sim = resume ? engine.resume(*resume).sim : engine.run().sim;
      r.models_built = w.models_built();
      return r;
    };
    if (crash_at == 0) return engine_run(opt, nullptr);
    std::remove(path.c_str());
    opt.checkpoint_every = crash_at;
    opt.checkpoint_path = path;
    auto first_half = opt;
    first_half.max_iterations = crash_at;
    engine_run(first_half, nullptr);  // its population dies with it
    const TrainerCheckpoint ck = load_checkpoint_file(path);
    EXPECT_EQ(ck.iteration, crash_at);
    Run resumed = engine_run(opt, &ck);
    std::remove(path.c_str());
    return resumed;
  };

  const Run serial = run(false, 1, 0);
  EXPECT_EQ(serial.models_built, 1u);
  std::uint64_t eliminated = 0;
  for (const auto& e : serial.sim.eliminations_per_client) eliminated += e;
  EXPECT_GT(eliminated, 0u);  // the filter, not just the codec, is exercised
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const auto& [parallel, shards, crash_at] :
       {std::tuple{true, 1u, 0u}, std::tuple{false, 4u, 0u},
        std::tuple{true, 4u, 0u}, std::tuple{true, 4u, 4u},
        std::tuple{false, 1u, 3u}}) {
    SCOPED_TRACE(::testing::Message() << "parallel " << parallel << " shards "
                                      << shards << " crash_at " << crash_at);
    const Run r = run(parallel, shards, crash_at);
    EXPECT_EQ(r.sim.final_params, serial.sim.final_params);
    EXPECT_EQ(r.sim.uploads_per_client, serial.sim.uploads_per_client);
    EXPECT_EQ(r.sim.uploaded_bytes, serial.sim.uploaded_bytes);
    EXPECT_EQ(r.sim.final_accuracy, serial.sim.final_accuracy);
    EXPECT_LE(r.models_built, parallel ? threads + 1 : 1u);
  }
}

TEST(DigitsCnnWorkload, RejectsMismatchedImageSizes) {
  DigitsCnnSpec spec;
  spec.cnn.image_size = 12;
  spec.digits.image_size = 16;
  EXPECT_THROW(make_digits_cnn_workload(spec), std::invalid_argument);
}

TEST(DigitsCnnWorkload, BuildsAndEvaluates) {
  DigitsCnnSpec spec;
  spec.clients = 4;
  spec.train_samples = 80;
  spec.test_samples = 40;
  spec.cnn.image_size = 12;
  spec.cnn.conv1_filters = 2;
  spec.cnn.conv2_filters = 4;
  spec.cnn.fc_width = 16;
  spec.digits.image_size = 12;
  Workload w = make_digits_cnn_workload(spec);
  EXPECT_EQ(w.clients.size(), 4u);
  std::vector<float> params(w.param_count);
  w.clients[0]->get_params(params);
  const nn::EvalResult eval = w.evaluator(params);
  EXPECT_EQ(eval.samples, 40u);
}

TEST(NwpWorkload, SplitsTrainAndTestPerRole) {
  NwpLstmSpec spec;
  spec.text.roles = 5;
  spec.text.words_per_role = 40;
  spec.text.seq_len = 4;
  spec.lm.embed_dim = 4;
  spec.lm.hidden_dim = 6;
  spec.test_fraction = 0.25;
  Workload w = make_nwp_lstm_workload(spec);
  EXPECT_EQ(w.clients.size(), 5u);
  std::vector<float> params(w.param_count);
  w.clients[0]->get_params(params);
  const nn::EvalResult eval = w.evaluator(params);
  // Every role contributes at least one test window.
  EXPECT_GE(eval.samples, 5u);
}

TEST(NwpWorkload, Validation) {
  NwpLstmSpec spec;
  spec.test_fraction = 0.0;
  EXPECT_THROW(make_nwp_lstm_workload(spec), std::invalid_argument);
  spec.test_fraction = 1.0;
  EXPECT_THROW(make_nwp_lstm_workload(spec), std::invalid_argument);
}

TEST(NwpWorkload, DeterministicForSeed) {
  NwpLstmSpec spec;
  spec.text.roles = 4;
  spec.text.words_per_role = 30;
  spec.text.seq_len = 4;
  spec.lm.embed_dim = 4;
  spec.lm.hidden_dim = 4;
  Workload a = make_nwp_lstm_workload(spec);
  Workload b = make_nwp_lstm_workload(spec);
  std::vector<float> pa(a.param_count), pb(b.param_count);
  a.clients[2]->get_params(pa);
  b.clients[2]->get_params(pb);
  EXPECT_EQ(pa, pb);
}

TEST(CaptureClientParams, SnapshotsLocalModels) {
  DigitsMlpSpec spec;
  spec.clients = 4;
  spec.train_samples = 80;
  spec.test_samples = 20;
  spec.digits.image_size = 8;
  Workload w = make_digits_mlp_workload(spec);
  SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 5;
  opt.learning_rate = core::Schedule::constant(0.05);
  opt.max_iterations = 3;
  opt.eval_every = 3;
  opt.capture_client_params = true;
  FederatedSimulation sim(std::move(w.clients),
                          std::make_unique<core::AcceptAllFilter>(),
                          w.evaluator, opt);
  const SimulationResult r = sim.run();
  ASSERT_EQ(r.client_params.size(), 4u);
  for (const auto& p : r.client_params) {
    EXPECT_EQ(p.size(), r.final_params.size());
  }
  // Clients trained on different shards must end at different local models.
  EXPECT_NE(r.client_params[0], r.client_params[1]);
}

}  // namespace
}  // namespace cmfl::fl
