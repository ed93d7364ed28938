#include "nn/dense.h"

#include <stdexcept>

#include "tensor/init.h"

namespace cmfl::nn {

Dense::Dense(std::size_t in, std::size_t out)
    : in_(in),
      out_(out),
      w_(out, in),
      b_(out, 0.0f),
      gw_(out, in),
      gb_(out, 0.0f) {
  if (in == 0 || out == 0) {
    throw std::invalid_argument("Dense: dimensions must be positive");
  }
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

void Dense::forward(const tensor::Matrix& in, tensor::Matrix& out,
                    bool /*training*/) {
  if (in.cols() != in_) {
    throw std::invalid_argument("Dense::forward: input width " +
                                std::to_string(in.cols()) + ", expected " +
                                std::to_string(in_));
  }
  cached_in_ = &in;
  out.resize(in.rows(), out_);
  // Dispatches to the blocked GEMM in tensor/kernels.cpp; large batches
  // shard output rows across the kernel pool (deterministic either way).
  tensor::matmul_nt(in, w_, out);
  tensor::add_row_bias(out, b_);
}

void Dense::backward(const tensor::Matrix& grad_out,
                     tensor::Matrix* grad_in) {
  if (cached_in_ == nullptr || grad_out.cols() != out_ ||
      grad_out.rows() != cached_in_->rows()) {
    throw std::invalid_argument("Dense::backward: gradient shape mismatch");
  }
  // gW += grad_outᵀ · in   ((out×B)ᵀ-style accumulation)
  gw_batch_.resize(out_, in_);
  tensor::matmul_tn(grad_out, *cached_in_, gw_batch_);
  tensor::accumulate(gw_, gw_batch_);
  // gb += column sums of grad_out
  tensor::add_col_sums(grad_out, gb_);
  // grad_in = grad_out · W
  if (grad_in == nullptr) return;
  grad_in->resize(grad_out.rows(), in_);
  tensor::matmul(grad_out, w_, *grad_in);
}

void Dense::init_params(util::Rng& rng) {
  tensor::he_normal(w_.flat(), in_, rng);
  std::fill(b_.begin(), b_.end(), 0.0f);
}

void Dense::collect_params(std::vector<std::span<float>>& out) {
  out.push_back(w_.flat());
  out.push_back(b_);
}

void Dense::collect_grads(std::vector<std::span<float>>& out) {
  out.push_back(gw_.flat());
  out.push_back(gb_);
}

void Dense::zero_grads() {
  gw_.zero();
  std::fill(gb_.begin(), gb_.end(), 0.0f);
}

}  // namespace cmfl::nn
