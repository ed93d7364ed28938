// Federated next-word prediction — the paper's Gboard-style motivating
// scenario: many "speakers", each with their own vocabulary habits,
// collaboratively training one language model without sharing text.
//
//   $ ./next_word_lstm [roles=30] [iters=30]
//
// After federated training, the example queries the global model with a few
// held-out word windows and shows its top prediction vs the ground truth.
#include <cstdio>

#include "core/filter.h"
#include "fl/simulation.h"
#include "fl/workloads.h"
#include "nn/loss.h"
#include "util/config.h"

using namespace cmfl;

namespace {

// Human-readable names for the synthetic vocabulary: topic words are
// "t<topic>w<idx>", function words are "f<idx>".
std::string token_name(int token, const data::SynthTextSpec& spec) {
  const int topic_words =
      static_cast<int>(spec.topics * spec.words_per_topic);
  if (token < topic_words) {
    return "t" + std::to_string(token / static_cast<int>(spec.words_per_topic)) +
           "w" + std::to_string(token % static_cast<int>(spec.words_per_topic));
  }
  return "f" + std::to_string(token - topic_words);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);

  fl::NwpLstmSpec spec;
  spec.text.roles = static_cast<std::size_t>(cfg.get_int("roles", 30));
  spec.text.words_per_role = 90;
  spec.text.seq_len = 6;
  spec.text.topics = 4;
  spec.text.words_per_topic = 8;
  spec.text.function_words = 16;
  spec.text.dominant_topic_weight = 3.0;
  spec.lm.embed_dim = 12;
  spec.lm.hidden_dim = 24;

  fl::SimulationOptions opt;
  opt.local_epochs = 2;
  opt.batch_size = 2;
  opt.learning_rate = core::Schedule::constant(0.8);
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 30));
  opt.eval_every = 5;
  const double threshold = cfg.get_double("threshold", 0.49);
  if (!cfg.check_unused_keys()) return 2;  // every key is read above

  fl::Workload w = fl::make_nwp_lstm_workload(spec);
  std::printf("workload: %s\n\n", w.description.c_str());
  fl::FederatedSimulation sim(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(threshold)),
      w.evaluator, opt);
  const fl::SimulationResult r = sim.run();

  for (const auto& rec : r.history) {
    if (rec.evaluated()) {
      std::printf("iter %2zu: uploads %2zu, next-word accuracy %.3f\n",
                  rec.iteration, rec.uploads, rec.accuracy);
    }
  }

  // Rebuild the corpus with the same seed and query the trained model on a
  // few windows.
  util::Rng rng(spec.seed);
  const data::RoleCorpus corpus = data::make_synth_text(spec.text, rng);
  nn::LstmLmSpec lm = spec.lm;
  lm.vocab = corpus.dataset.vocab;
  nn::LstmLm model(lm);
  util::Rng init_rng(1);
  model.init_params(init_rng);
  model.set_params(r.final_params);

  std::printf("\nsample predictions from the trained global model:\n");
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t window = (i * 137) % corpus.dataset.size();
    nn::SeqBatch batch;
    std::vector<int> label;
    std::vector<std::size_t> idx = {window};
    corpus.dataset.gather(idx, batch, label);
    const tensor::Matrix logits = model.predict(batch);
    const int top1 = nn::argmax_rows(logits)[0];
    std::printf("  [");
    for (std::size_t t = 0; t < batch.seq_len; ++t) {
      std::printf("%s%s", t ? " " : "",
                  token_name(batch.tokens[t], spec.text).c_str());
    }
    std::printf("] -> truth %s, predicted %s%s\n",
                token_name(label[0], spec.text).c_str(),
                token_name(top1, spec.text).c_str(),
                top1 == label[0] ? "  (hit)" : "");
  }
  std::printf("\nfinal next-word accuracy: %.3f, uploads: %zu\n",
              r.final_accuracy, r.total_rounds);
  return 0;
}
