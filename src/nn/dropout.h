// Inverted dropout: active only when forward() runs with training=true.
#pragma once

#include "nn/layer.h"

namespace cmfl::nn {

class Dropout final : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1).  Each layer instance owns an
  /// Rng stream seeded at construction so parallel clients stay
  /// deterministic.
  Dropout(std::size_t dim, float rate, std::uint64_t seed = 17);

  std::size_t in_dim() const noexcept override { return dim_; }
  std::size_t out_dim() const noexcept override { return dim_; }
  std::string name() const override;

  void forward(const tensor::Matrix& in, tensor::Matrix& out,
               bool training) override;
  void backward(const tensor::Matrix& grad_out,
                tensor::Matrix* grad_in) override;

 private:
  std::size_t dim_;
  float rate_;
  util::Rng rng_;
  tensor::Matrix mask_;  // scaled keep mask from the last training forward
  bool last_training_ = false;
};

}  // namespace cmfl::nn
