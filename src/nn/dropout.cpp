#include "nn/dropout.h"

#include <algorithm>
#include <stdexcept>

namespace cmfl::nn {

Dropout::Dropout(std::size_t dim, float rate, std::uint64_t seed)
    : dim_(dim), rate_(rate), rng_(seed) {
  if (dim == 0) throw std::invalid_argument("Dropout: dim must be positive");
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

std::string Dropout::name() const {
  return "Dropout(p=" + std::to_string(rate_) + ")";
}

void Dropout::forward(const tensor::Matrix& in, tensor::Matrix& out,
                      bool training) {
  if (in.cols() != dim_) {
    throw std::invalid_argument("Dropout::forward: input width mismatch");
  }
  last_training_ = training && rate_ > 0.0f;
  out.resize(in.rows(), in.cols());
  auto src = in.flat();
  auto o = out.flat();
  if (!last_training_) {
    std::copy(src.begin(), src.end(), o.begin());
    return;
  }
  const float keep_scale = 1.0f / (1.0f - rate_);
  mask_.resize(in.rows(), in.cols());
  auto m = mask_.flat();
  for (std::size_t i = 0; i < o.size(); ++i) {
    m[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    o[i] = src[i] * m[i];
  }
}

void Dropout::backward(const tensor::Matrix& grad_out,
                       tensor::Matrix* grad_in) {
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.rows(), grad_out.cols());
  auto go = grad_out.flat();
  auto gi = grad_in->flat();
  if (!last_training_) {
    std::copy(go.begin(), go.end(), gi.begin());
    return;
  }
  if (!grad_in->same_shape(mask_)) {
    throw std::invalid_argument("Dropout::backward: gradient shape mismatch");
  }
  auto m = mask_.flat();
  for (std::size_t i = 0; i < gi.size(); ++i) gi[i] = go[i] * m[i];
}

}  // namespace cmfl::nn
