// Workload builders: wiring, shapes, evaluator sanity, determinism.
#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/filter.h"
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

  auto first = lazy.factory(0);
  ASSERT_TRUE(first);
  EXPECT_EQ(lazy.spare_models(), 0u);
  expect_matches_eager(*first, 0);
  first.reset();  // evicted: its trained model is parked as a spare
  EXPECT_EQ(lazy.spare_models(), 1u);

  // Every later device is built from that spare, whose weights the last
  // training pass moved away from the initial ones.
  for (const std::size_t k : {2u, 4u, 3u}) {
    auto made = lazy.factory(k);
    ASSERT_TRUE(made);
    EXPECT_EQ(lazy.spare_models(), 0u) << "device " << k << " built anew";
    expect_matches_eager(*made, k);
  }
  EXPECT_EQ(lazy.spare_models(), 1u);

  // The two evaluators are the same model over the same test set.
  std::vector<float> params(eager.param_count);
  eager.clients[0]->get_params(params);
  const auto ea = eager.evaluator(params);
  const auto eb = lazy.evaluator(params);
  EXPECT_EQ(ea.accuracy, eb.accuracy);
  EXPECT_EQ(ea.loss, eb.loss);
  EXPECT_THROW(lazy.factory(spec.clients), std::out_of_range);
}

TEST(DigitsMlpPopulation, SpareMaterializationAllocatesLessThanAModel) {
  DigitsMlpSpec spec;
  spec.clients = 4;
  spec.train_samples = 80;
  spec.test_samples = 20;
  spec.digits.image_size = 8;
  spec.hidden = {128};
  PopulationWorkload lazy = make_digits_mlp_population(spec);
  const std::size_t model_bytes = lazy.param_count * sizeof(float);

  testing::reset_alloc_count();
  auto fresh = lazy.factory(0);
  EXPECT_GE(testing::alloc_bytes(), model_bytes);  // no spare yet
  fresh->train_local(1, 2, 0.1f);                  // sizes its workspaces
  fresh.reset();
  ASSERT_EQ(lazy.spare_models(), 1u);

  testing::reset_alloc_count();
  auto recycled = lazy.factory(1);
  EXPECT_LT(testing::alloc_bytes(), model_bytes);
  EXPECT_EQ(lazy.spare_models(), 0u);
}

TEST(DigitsMlpPopulation, SparesNeverExceedThePeakResidentCount) {
  DigitsMlpSpec spec;
  spec.clients = 40;
  spec.train_samples = 320;
  spec.test_samples = 40;
  spec.digits.image_size = 8;
  spec.hidden = {16};
  spec.partition = "sharded";

  // Serial churn through the warm pool: cohorts of 6, at most 3 kept warm.
  {
    PopulationWorkload w = make_digits_mlp_population(spec);
    sched::PopulationSpec ps;
    ps.devices = spec.clients;
    ps.max_resident = 3;
    sched::Population population(ps, w.factory);
    for (std::uint64_t round = 0; round < 12; ++round) {
      std::vector<std::uint64_t> cohort;
      for (std::uint64_t j = 0; j < 6; ++j) {
        cohort.push_back((round * 7 + j * 5) % spec.clients);
      }
      for (const std::uint64_t d : cohort) {
        population.acquire(d);
        EXPECT_LE(w.spare_models(), population.peak_resident());
      }
      for (const std::uint64_t d : cohort) {
        population.release(d);
        EXPECT_LE(w.spare_models(), population.peak_resident());
      }
    }
    EXPECT_GT(population.evictions(), 0u);
    EXPECT_GT(w.spare_models(), 0u);
  }

  // The engine's parallel phases: pool threads take spares while the
  // trim barrier between phases parks evicted models.
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
  EXPECT_GT(r.sched.evictions, 0u);
  EXPECT_GT(w.spare_models(), 0u);
  EXPECT_LE(w.spare_models(), r.sched.peak_resident_clients);
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
