#include "fl/workloads.h"

#include <stdexcept>

namespace cmfl::fl {

namespace {

/// Storage bundle for dense workloads; heap-allocated so client pointers
/// stay valid for the Workload's lifetime.
struct DenseStorage {
  data::DenseDataset train;
  data::DenseDataset test;
};

struct SeqStorage {
  data::SequenceDataset train;
  data::SequenceDataset test;
};

/// Batched evaluation keeps peak activation memory bounded.
constexpr std::size_t kEvalBatch = 256;

GlobalEvaluator make_dense_evaluator(
    std::shared_ptr<nn::FeedForward> eval_model,
    std::shared_ptr<DenseStorage> storage) {
  return [eval_model, storage](std::span<const float> params) {
    eval_model->set_params(params);
    nn::EvalResult total;
    tensor::Matrix bx;
    std::vector<int> by;
    const std::size_t n = storage->test.size();
    for (std::size_t begin = 0; begin < n; begin += kEvalBatch) {
      const std::size_t end = std::min(begin + kEvalBatch, n);
      std::vector<std::size_t> idx(end - begin);
      for (std::size_t i = begin; i < end; ++i) idx[i - begin] = i;
      storage->test.gather(idx, bx, by);
      total = nn::merge(total, eval_model->evaluate(bx, by));
    }
    return total;
  };
}

GlobalEvaluator make_seq_evaluator(std::shared_ptr<nn::LstmLm> eval_model,
                                   std::shared_ptr<SeqStorage> storage) {
  return [eval_model, storage](std::span<const float> params) {
    eval_model->set_params(params);
    nn::EvalResult total;
    nn::SeqBatch bx;
    std::vector<int> by;
    const std::size_t n = storage->test.size();
    for (std::size_t begin = 0; begin < n; begin += kEvalBatch) {
      const std::size_t end = std::min(begin + kEvalBatch, n);
      std::vector<std::size_t> idx(end - begin);
      for (std::size_t i = begin; i < end; ++i) idx[i - begin] = i;
      storage->test.gather(idx, bx, by);
      total = nn::merge(total, eval_model->evaluate(bx, by));
    }
    return total;
  };
}

std::vector<float> params_of(nn::FeedForward& model) {
  std::vector<float> params(model.param_count());
  model.get_params(params);
  return params;
}

/// Digits-MLP models built from the initial parameters (no weight draw).
std::shared_ptr<ModelPool> mlp_pool(std::size_t in_dim,
                                    const DigitsMlpSpec& spec,
                                    std::vector<float> initial) {
  return std::make_shared<ModelPool>(
      [in_dim, hidden = spec.hidden,
       classes = spec.digits.classes](std::span<const float> params) {
        return nn::make_mlp(in_dim, hidden, classes, params);
      },
      std::move(initial));
}

/// One client per shard, client k on stream rng.split(100 + k).  Eager
/// clients never park, so each is bound to its own model here, at build
/// time, rather than in its first round.
void bind_dense_clients(Workload& w, const std::shared_ptr<ModelPool>& models,
                        const std::shared_ptr<DenseStorage>& storage,
                        const data::Partition& partition, util::Rng& rng,
                        std::size_t clients) {
  for (std::size_t k = 0; k < clients; ++k) {
    auto client = std::make_unique<DenseClient>(
        models, &storage->train, partition.client_indices[k],
        rng.split(100 + k));
    client->set_params(models->initial());
    w.clients.push_back(std::move(client));
  }
}

data::Partition partition_dense(const std::string& kind,
                                std::span<const int> labels,
                                std::size_t clients, util::Rng& rng) {
  if (kind == "label_sorted") return data::label_sorted_partition(labels, clients);
  if (kind == "sharded") return data::sharded_partition(labels, clients, 2, rng);
  if (kind == "iid") return data::iid_partition(labels.size(), clients, rng);
  throw std::invalid_argument("unknown partition kind '" + kind + "'");
}

}  // namespace

Workload make_digits_cnn_workload(const DigitsCnnSpec& spec) {
  if (spec.cnn.image_size != spec.digits.image_size) {
    throw std::invalid_argument(
        "make_digits_cnn_workload: CNN and dataset image sizes disagree");
  }
  util::Rng rng(spec.seed);
  auto storage = std::make_shared<DenseStorage>();
  auto train_spec = spec.digits;
  train_spec.samples = spec.train_samples;
  storage->train = data::make_synth_digits(train_spec, rng);
  auto test_spec = spec.digits;
  test_spec.samples = spec.test_samples;
  storage->test = data::make_synth_digits(test_spec, rng);

  const data::Partition partition =
      data::label_sorted_partition(storage->train.y, spec.clients);

  // All clients start from identical weights (the first broadcast
  // synchronizes them anyway; identical init keeps iteration 1 meaningful):
  // every model is drawn from a copy of the same init stream.
  util::Rng init_rng = rng.split(1);
  util::Rng eval_rng = init_rng;
  auto eval_model = std::make_shared<nn::FeedForward>(
      nn::make_digits_cnn(spec.cnn, eval_rng));
  const auto cnn = spec.cnn;
  Workload w;
  w.storage = storage;
  bind_dense_clients(
      w, std::make_shared<ModelPool>(
             [cnn, init_rng](std::span<const float>) {
               util::Rng model_rng = init_rng;
               return nn::make_digits_cnn(cnn, model_rng);
             },
             params_of(*eval_model)),
      storage, partition, rng, spec.clients);
  w.evaluator = make_dense_evaluator(eval_model, storage);
  w.param_count = w.clients.front()->param_count();
  w.description = "digits_cnn(" + std::to_string(spec.clients) +
                  " clients, " + std::to_string(spec.train_samples) +
                  " samples, " + std::to_string(w.param_count) + " params)";
  return w;
}

Workload make_digits_mlp_workload(const DigitsMlpSpec& spec) {
  util::Rng rng(spec.seed);
  auto storage = std::make_shared<DenseStorage>();
  auto train_spec = spec.digits;
  train_spec.samples = spec.train_samples;
  storage->train = data::make_synth_digits(train_spec, rng);
  auto test_spec = spec.digits;
  test_spec.samples = spec.test_samples;
  storage->test = data::make_synth_digits(test_spec, rng);

  util::Rng part_rng = rng.split(7);
  const data::Partition partition = partition_dense(
      spec.partition, storage->train.y, spec.clients, part_rng);

  const std::size_t in_dim = storage->train.features();
  util::Rng init_rng = rng.split(1);
  util::Rng eval_rng = init_rng;
  auto eval_model = std::make_shared<nn::FeedForward>(
      nn::make_mlp(in_dim, spec.hidden, spec.digits.classes, eval_rng));
  Workload w;
  w.storage = storage;
  bind_dense_clients(w, mlp_pool(in_dim, spec, params_of(*eval_model)),
                     storage, partition, rng, spec.clients);
  w.evaluator = make_dense_evaluator(eval_model, storage);
  w.param_count = w.clients.front()->param_count();
  w.description = "digits_mlp(" + std::to_string(spec.clients) +
                  " clients, " + std::to_string(w.param_count) + " params)";
  return w;
}

PopulationWorkload make_digits_mlp_population(const DigitsMlpSpec& spec) {
  // Mirrors make_digits_mlp_workload exactly: the same rng consumption
  // order fixes the same datasets and partition, and because Rng::split is
  // non-mutating, capturing the post-synthesis rng state lets the factory
  // derive split(100 + k) for any device later — the identical stream the
  // eager constructor hands client k.
  util::Rng rng(spec.seed);
  auto storage = std::make_shared<DenseStorage>();
  auto train_spec = spec.digits;
  train_spec.samples = spec.train_samples;
  storage->train = data::make_synth_digits(train_spec, rng);
  auto test_spec = spec.digits;
  test_spec.samples = spec.test_samples;
  storage->test = data::make_synth_digits(test_spec, rng);

  util::Rng part_rng = rng.split(7);
  auto partition = std::make_shared<data::Partition>(partition_dense(
      spec.partition, storage->train.y, spec.clients, part_rng));

  const std::size_t in_dim = storage->train.features();
  util::Rng init_rng = rng.split(1);
  const util::Rng stream_base = rng;

  PopulationWorkload w;
  w.storage = storage;
  // The eval model is drawn from the same init stream as every device, so
  // its fresh weights are the initial parameters of all of them: take them
  // once here; the model pool copies them instead of re-drawing.
  util::Rng eval_rng = init_rng;
  auto eval_model = std::make_shared<nn::FeedForward>(
      nn::make_mlp(in_dim, spec.hidden, spec.digits.classes, eval_rng));
  w.param_count = eval_model->param_count();
  auto models = mlp_pool(in_dim, spec, params_of(*eval_model));
  w.evaluator = make_dense_evaluator(eval_model, storage);

  w.models_built = [models] { return models->models_built(); };
  w.factory = [storage, partition, models, stream_base](std::uint64_t device)
      -> std::unique_ptr<FlClient> {
    if (device >= partition->client_indices.size()) {
      throw std::out_of_range(
          "digits_mlp_population: device id beyond spec.clients");
    }
    util::Rng streams = stream_base;
    return std::make_unique<DenseClient>(
        models, &storage->train, partition->client_indices[device],
        streams.split(100 + device));
  };
  w.description = "digits_mlp_population(" + std::to_string(spec.clients) +
                  " devices, " + std::to_string(w.param_count) + " params)";
  return w;
}

Workload make_nwp_lstm_workload(const NwpLstmSpec& spec) {
  if (spec.test_fraction <= 0.0 || spec.test_fraction >= 1.0) {
    throw std::invalid_argument(
        "make_nwp_lstm_workload: test_fraction out of (0,1)");
  }
  util::Rng rng(spec.seed);
  data::RoleCorpus corpus = data::make_synth_text(spec.text, rng);

  // Split each role's windows into local-train and server-test so the test
  // distribution covers every role.
  auto storage = std::make_shared<SeqStorage>();
  storage->train.seq_len = storage->test.seq_len = corpus.dataset.seq_len;
  storage->train.vocab = storage->test.vocab = corpus.dataset.vocab;
  std::vector<std::vector<std::size_t>> client_shards(spec.text.roles);
  for (std::size_t role = 0; role < spec.text.roles; ++role) {
    const auto& windows = corpus.windows_of_role[role];
    if (windows.size() < 2) {
      throw std::invalid_argument(
          "make_nwp_lstm_workload: role with fewer than 2 windows; increase "
          "words_per_role");
    }
    const auto test_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(spec.test_fraction *
                                    static_cast<double>(windows.size())));
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const std::size_t src = windows[i];
      data::SequenceDataset& dst =
          i < windows.size() - test_count ? storage->train : storage->test;
      if (i < windows.size() - test_count) {
        client_shards[role].push_back(dst.size());
      }
      dst.tokens.insert(dst.tokens.end(),
                        corpus.dataset.tokens.begin() +
                            static_cast<std::ptrdiff_t>(src * corpus.dataset.seq_len),
                        corpus.dataset.tokens.begin() +
                            static_cast<std::ptrdiff_t>((src + 1) * corpus.dataset.seq_len));
      dst.next_token.push_back(corpus.dataset.next_token[src]);
    }
  }
  storage->train.validate();
  storage->test.validate();

  nn::LstmLmSpec lm = spec.lm;
  lm.vocab = corpus.dataset.vocab;

  util::Rng init_rng = rng.split(1);
  Workload w;
  w.storage = storage;
  for (std::size_t k = 0; k < spec.text.roles; ++k) {
    util::Rng model_rng = init_rng;
    nn::LstmLm model(lm);
    model.init_params(model_rng);
    w.clients.push_back(std::make_unique<SequenceClient>(
        std::move(model), &storage->train, client_shards[k],
        rng.split(100 + k)));
  }
  util::Rng eval_rng = init_rng;
  auto eval_model = std::make_shared<nn::LstmLm>(lm);
  eval_model->init_params(eval_rng);
  w.evaluator = make_seq_evaluator(eval_model, storage);
  w.param_count = w.clients.front()->param_count();
  w.description = "nwp_lstm(" + std::to_string(spec.text.roles) +
                  " roles, vocab " + std::to_string(lm.vocab) + ", " +
                  std::to_string(w.param_count) + " params)";
  return w;
}

}  // namespace cmfl::fl
