#include "nn/lstm_lm.h"

#include <cmath>
#include <stdexcept>

#include "nn/loss.h"

namespace cmfl::nn {

LstmLm::LstmLm(const LstmLmSpec& spec)
    : spec_(spec),
      embedding_(spec.vocab, spec.embed_dim),
      head_(spec.hidden_dim, spec.vocab) {
  if (spec.layers == 0 || spec.layers > 2) {
    throw std::invalid_argument("LstmLm: layers must be 1 or 2");
  }
  lstms_.emplace_back(spec.embed_dim, spec.hidden_dim);
  if (spec.layers == 2) {
    lstms_.emplace_back(spec.hidden_dim, spec.hidden_dim);
  }
}

ParamPack& LstmLm::params_pack() {
  if (!packs_built_) {
    std::vector<std::span<float>> views;
    views.push_back(embedding_.params());
    for (auto& lstm : lstms_) lstm.collect_params(views);
    head_.collect_params(views);
    params_cache_ = ParamPack(std::move(views));
    std::vector<std::span<float>> gviews;
    gviews.push_back(embedding_.grads());
    for (auto& lstm : lstms_) lstm.collect_grads(gviews);
    head_.collect_grads(gviews);
    grads_cache_ = ParamPack(std::move(gviews));
    packs_built_ = true;
  }
  return params_cache_;
}

ParamPack& LstmLm::grads_pack() {
  params_pack();
  return grads_cache_;
}

void LstmLm::zero_grads() {
  embedding_.zero_grads();
  for (auto& lstm : lstms_) lstm.zero_grads();
  head_.zero_grads();
}

std::size_t LstmLm::param_count() { return params_pack().total_size(); }

void LstmLm::get_params(std::span<float> out) { params_pack().copy_to(out); }

void LstmLm::set_params(std::span<const float> in) {
  params_pack().copy_from(in);
}

void LstmLm::get_grads(std::span<float> out) { grads_pack().copy_to(out); }

void LstmLm::init_params(util::Rng& rng) {
  embedding_.init_params(rng);
  for (auto& lstm : lstms_) lstm.init_params(rng);
  head_.init_params(rng);
}

const tensor::Matrix& LstmLm::forward_into(const SeqBatch& x, bool training) {
  if (x.batch == 0 || x.seq_len == 0 ||
      x.tokens.size() != x.batch * x.seq_len) {
    throw std::invalid_argument("LstmLm::forward: malformed SeqBatch");
  }
  // Gather per-timestep token columns and embed them into reused buffers.
  step_tokens_.resize(x.seq_len * x.batch);
  if (embedded_.size() != x.seq_len) embedded_.resize(x.seq_len);
  for (std::size_t t = 0; t < x.seq_len; ++t) {
    int* col = step_tokens_.data() + t * x.batch;
    for (std::size_t i = 0; i < x.batch; ++i) {
      col[i] = x.tokens[i * x.seq_len + t];
    }
    embedding_.lookup_into(step_tokens(t, x.batch), embedded_[t]);
  }

  const tensor::Matrix* h_last = &lstms_.front().forward(embedded_);
  if (lstms_.size() == 2) {
    hidden1_ = lstms_.front().hidden_states();
    h_last = &lstms_.back().forward(hidden1_);
  }

  head_.forward(*h_last, logits_, training);
  return logits_;
}

double LstmLm::compute_grads(const SeqBatch& x,
                             std::span<const int> next_token) {
  if (next_token.size() != x.batch) {
    throw std::invalid_argument("LstmLm::compute_grads: label count mismatch");
  }
  zero_grads();
  forward_into(x, /*training=*/true);
  const double loss = softmax_cross_entropy(logits_, next_token, loss_grad_);

  head_.backward(loss_grad_, &grad_h_last_);

  // Backprop through the stack, deepest layer first.  Each backward returns
  // a reference into the layer's own workspace, so the chain is copy-free.
  const std::vector<tensor::Matrix>* grad_inputs =
      &lstms_.back().backward(grad_h_last_);
  for (std::size_t layer = lstms_.size() - 1; layer-- > 0;) {
    grad_inputs = &lstms_[layer].backward_steps(*grad_inputs);
  }
  for (std::size_t t = 0; t < grad_inputs->size(); ++t) {
    embedding_.accumulate_grad(step_tokens(t, x.batch), (*grad_inputs)[t]);
  }
  return loss;
}

double LstmLm::train_batch(const SeqBatch& x, std::span<const int> next_token,
                           float lr) {
  const double loss = compute_grads(x, next_token);
  params_pack().axpy_from(-lr, grads_pack());
  return loss;
}

tensor::Matrix LstmLm::predict(const SeqBatch& x) {
  return forward_into(x, /*training=*/false);
}

EvalResult LstmLm::evaluate(const SeqBatch& x,
                            std::span<const int> next_token) {
  if (next_token.size() != x.batch) {
    throw std::invalid_argument("LstmLm::evaluate: label count mismatch");
  }
  const tensor::Matrix& logits = forward_into(x, /*training=*/false);
  const tensor::Matrix probs = softmax(logits);
  EvalResult result;
  result.samples = x.batch;
  result.accuracy = accuracy(logits, next_token);
  double loss = 0.0;
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    const double p = std::max(
        1e-12, static_cast<double>(
                   probs.at(r, static_cast<std::size_t>(next_token[r]))));
    loss -= std::log(p);
  }
  result.loss = loss / static_cast<double>(x.batch);
  return result;
}

}  // namespace cmfl::nn
