// Fully connected layer: out = in · Wᵀ + b.
#pragma once

#include "nn/layer.h"

namespace cmfl::nn {

class Dense final : public Layer {
 public:
  /// W is (out × in), b has `out` entries.  He-initialized by default (the
  /// nets here use ReLU hidden layers); callers can re-init.
  Dense(std::size_t in, std::size_t out);

  std::size_t in_dim() const noexcept override { return in_; }
  std::size_t out_dim() const noexcept override { return out_; }
  std::string name() const override;

  void forward(const tensor::Matrix& in, tensor::Matrix& out,
               bool training) override;
  void backward(const tensor::Matrix& grad_out,
                tensor::Matrix* grad_in) override;

  void init_params(util::Rng& rng) override;
  void collect_params(std::vector<std::span<float>>& out) override;
  void collect_grads(std::vector<std::span<float>>& out) override;
  void zero_grads() override;

  const tensor::Matrix& weights() const noexcept { return w_; }

 private:
  std::size_t in_;
  std::size_t out_;
  tensor::Matrix w_;       // out × in
  std::vector<float> b_;   // out
  tensor::Matrix gw_;
  std::vector<float> gb_;
  const tensor::Matrix* cached_in_ = nullptr;  // forward input (see Layer)
  tensor::Matrix gw_batch_;  // persistent per-step scratch for gW
};

}  // namespace cmfl::nn
