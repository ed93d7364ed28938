#include "nn/activations.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace cmfl::nn {

float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

ReLU::ReLU(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("ReLU: dim must be positive");
}

std::string ReLU::name() const { return "ReLU(" + std::to_string(dim_) + ")"; }

void ReLU::forward(const tensor::Matrix& in, tensor::Matrix& out,
                   bool /*training*/) {
  if (in.cols() != dim_) {
    throw std::invalid_argument("ReLU::forward: input width mismatch");
  }
  cached_in_ = &in;
  out.resize(in.rows(), in.cols());
  auto src = in.flat();
  auto dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float v = src[i];
    dst[i] = v > 0.0f ? v : 0.0f;
  }
}

void ReLU::backward(const tensor::Matrix& grad_out, tensor::Matrix* grad_in) {
  if (cached_in_ == nullptr || grad_out.rows() != cached_in_->rows() ||
      grad_out.cols() != dim_) {
    throw std::invalid_argument("ReLU::backward: gradient shape mismatch");
  }
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.rows(), grad_out.cols());
  auto go = grad_out.flat();
  auto gi = grad_in->flat();
  auto ci = cached_in_->flat();
  // gi = ci <= 0 ? +0 : go, written as a bit-mask select so the loop
  // vectorizes (compare + and-not) instead of branching on the data.
  // !(ci <= 0) keeps NaN inputs' gradient and masks ±0 inputs, exactly as
  // the ternary does; a masked lane's bits are all zero, i.e. +0.
  for (std::size_t i = 0; i < gi.size(); ++i) {
    const std::uint32_t keep = !(ci[i] <= 0.0f);
    gi[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(go[i]) &
                                 (0u - keep));
  }
}

Tanh::Tanh(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("Tanh: dim must be positive");
}

std::string Tanh::name() const { return "Tanh(" + std::to_string(dim_) + ")"; }

void Tanh::forward(const tensor::Matrix& in, tensor::Matrix& out,
                   bool /*training*/) {
  if (in.cols() != dim_) {
    throw std::invalid_argument("Tanh::forward: input width mismatch");
  }
  out.resize(in.rows(), in.cols());
  auto src = in.flat();
  auto dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = std::tanh(src[i]);
  cached_out_ = &out;
}

void Tanh::backward(const tensor::Matrix& grad_out, tensor::Matrix* grad_in) {
  if (cached_out_ == nullptr || grad_out.rows() != cached_out_->rows() ||
      grad_out.cols() != dim_) {
    throw std::invalid_argument("Tanh::backward: gradient shape mismatch");
  }
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.rows(), grad_out.cols());
  auto go = grad_out.flat();
  auto gi = grad_in->flat();
  auto co = cached_out_->flat();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    gi[i] = go[i] * (1.0f - co[i] * co[i]);
  }
}

}  // namespace cmfl::nn
