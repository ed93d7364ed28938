// Master/worker cluster emulation — the paper's EC2 deployment in one
// process.  Workers run on real threads and talk to the master through a
// byte-exact wire protocol; every frame is counted, so the printed network
// footprint is exactly what a real deployment would upload.
//
//   $ ./cluster_emulation [workers=30] [iters=15]
#include <cstdio>

#include "core/filter.h"
#include "fl/workloads.h"
#include "net/cluster.h"
#include "util/config.h"

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);

  fl::NwpLstmSpec spec;
  spec.text.roles = static_cast<std::size_t>(cfg.get_int("workers", 30));
  spec.text.words_per_role = 90;
  spec.text.seq_len = 6;
  spec.text.topics = 4;
  spec.text.words_per_topic = 8;
  spec.text.function_words = 16;
  spec.text.dominant_topic_weight = 3.0;
  spec.lm.embed_dim = 12;
  spec.lm.hidden_dim = 24;

  net::ClusterOptions opt;
  opt.fl.local_epochs = 2;
  opt.fl.batch_size = 2;
  opt.fl.learning_rate = core::Schedule::constant(0.8);
  opt.fl.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 15));
  const double threshold = cfg.get_double("threshold", 0.55);
  if (!cfg.check_unused_keys()) return 2;  // every key is read above
  opt.fl.eval_every = 5;
  // Edge-uplink model: 8 Mbit/s up, 32 Mbit/s down, 50 ms latency.
  opt.uplink = {0.05, 1.0e6};
  opt.downlink = {0.05, 4.0e6};

  fl::Workload w = fl::make_nwp_lstm_workload(spec);
  std::printf("cluster: 1 master + %zu workers, %s\n\n", spec.text.roles,
              w.description.c_str());

  // The slowly decaying threshold tracks the relevance band over the run
  // (same setting as the fig7 bench).
  net::FlCluster cluster(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(
          core::Schedule::inv_pow(threshold, 0.02)),
      w.evaluator, opt);
  const net::ClusterResult r = cluster.run();

  for (const auto& p : r.footprint) {
    std::printf("iter %3zu: accuracy %.3f, cumulative uplink %8llu bytes\n",
                p.iteration, p.accuracy,
                static_cast<unsigned long long>(p.uplink_bytes));
  }
  std::printf("\nwire totals:\n");
  std::printf("  full update uploads : %llu frames\n",
              static_cast<unsigned long long>(r.upload_messages));
  std::printf("  elimination notices : %llu frames (tiny status messages)\n",
              static_cast<unsigned long long>(r.elimination_messages));
  std::printf("  uplink              : %llu bytes\n",
              static_cast<unsigned long long>(r.uplink_bytes));
  std::printf("  downlink            : %llu bytes\n",
              static_cast<unsigned long long>(r.downlink_bytes));
  std::printf("  simulated transfer  : %.1f s over an 8 Mbit/s edge uplink\n",
              r.simulated_transfer_seconds);
  std::printf("  final accuracy      : %.3f\n", r.sim.final_accuracy);
  return 0;
}
