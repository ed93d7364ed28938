#include "fl/client.h"

#include <algorithm>
#include <stdexcept>

namespace cmfl::fl {

void FlClient::restore_mutable_state(std::span<const std::uint64_t> state) {
  if (!state.empty()) {
    throw std::invalid_argument(
        "FlClient: state blob for a stateless client");
  }
}

ModelPool::ModelPool(Builder build, std::vector<float> initial)
    : build_(std::move(build)), initial_(std::move(initial)) {
  if (!build_) throw std::invalid_argument("ModelPool: null builder");
}

nn::FeedForward ModelPool::take() {
  {
    std::lock_guard lock(mu_);
    if (!free_.empty()) {
      nn::FeedForward model(std::move(free_.back()));
      free_.pop_back();
      return model;
    }
  }
  // Built outside the lock: concurrent first leases overlap.
  nn::FeedForward model = build_(initial_);
  if (model.param_count() != initial_.size()) {
    throw std::logic_error("ModelPool: builder disagrees with initial()");
  }
  std::lock_guard lock(mu_);
  ++built_;
  return model;
}

void ModelPool::give(nn::FeedForward&& model) noexcept {
  std::lock_guard lock(mu_);
  try {
    free_.push_back(std::move(model));
  } catch (...) {
    // Out of memory: drop the model; the next take() builds another.
  }
}

std::size_t ModelPool::models_built() const {
  std::lock_guard lock(mu_);
  return built_;
}

DenseClient::DenseClient(std::shared_ptr<ModelPool> models,
                         const data::DenseDataset* dataset,
                         std::vector<std::size_t> shard, util::Rng rng)
    : models_(std::move(models)),
      dataset_(dataset),
      shard_(std::move(shard)),
      rng_(rng) {
  if (models_ == nullptr) {
    throw std::invalid_argument("DenseClient: null model pool");
  }
  if (dataset_ == nullptr) {
    throw std::invalid_argument("DenseClient: null dataset");
  }
  if (shard_.empty()) {
    throw std::invalid_argument("DenseClient: empty shard");
  }
}

void DenseClient::set_params(std::span<const float> params) {
  if (!model_) {
    // Checked before the lease, so a failed install binds nothing.
    if (params.size() != param_count()) {
      throw std::invalid_argument("DenseClient::set_params: size mismatch");
    }
    model_.emplace(models_->take());
  }
  model_->set_params(params);
}

void DenseClient::get_params(std::span<float> out) {
  if (model_) {
    model_->get_params(out);
    return;
  }
  const std::span<const float> initial = models_->initial();
  if (out.size() != initial.size()) {
    throw std::invalid_argument("DenseClient::get_params: size mismatch");
  }
  std::copy(initial.begin(), initial.end(), out.begin());
}

double DenseClient::train_local(int epochs, std::size_t batch_size,
                                float lr) {
  if (epochs <= 0) {
    throw std::invalid_argument("DenseClient: epochs must be positive");
  }
  if (!model_) {
    model_.emplace(models_->take());
    model_->set_params(models_->initial());
  }
  nn::FeedForward& model = *model_;
  data::Batcher batcher(shard_, batch_size);
  tensor::Matrix bx;
  std::vector<int> by;
  double last_epoch_loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (const auto& batch : batcher.epoch(rng_)) {
      dataset_->gather(batch, bx, by);
      loss_sum += model.train_batch(bx, by, lr);
      ++batches;
      ++lifetime_steps_;
    }
    last_epoch_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

void DenseClient::park() noexcept {
  if (!model_) return;
  models_->give(std::move(*model_));
  model_.reset();
}

std::vector<std::uint64_t> DenseClient::mutable_state() const {
  return util::rng_state_words(rng_);
}

void DenseClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

SequenceClient::SequenceClient(nn::LstmLm model,
                               const data::SequenceDataset* dataset,
                               std::vector<std::size_t> shard, util::Rng rng)
    : model_(std::move(model)),
      dataset_(dataset),
      shard_(std::move(shard)),
      rng_(rng) {
  if (dataset_ == nullptr) {
    throw std::invalid_argument("SequenceClient: null dataset");
  }
  if (shard_.empty()) {
    throw std::invalid_argument("SequenceClient: empty shard");
  }
}

void SequenceClient::set_params(std::span<const float> params) {
  model_.set_params(params);
}

void SequenceClient::get_params(std::span<float> out) {
  model_.get_params(out);
}

double SequenceClient::train_local(int epochs, std::size_t batch_size,
                                   float lr) {
  if (epochs <= 0) {
    throw std::invalid_argument("SequenceClient: epochs must be positive");
  }
  data::Batcher batcher(shard_, batch_size);
  nn::SeqBatch bx;
  std::vector<int> by;
  double last_epoch_loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (const auto& batch : batcher.epoch(rng_)) {
      dataset_->gather(batch, bx, by);
      loss_sum += model_.train_batch(bx, by, lr);
      ++batches;
      ++lifetime_steps_;
    }
    last_epoch_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

std::vector<std::uint64_t> SequenceClient::mutable_state() const {
  return util::rng_state_words(rng_);
}

void SequenceClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

}  // namespace cmfl::fl
