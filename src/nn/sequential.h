// Sequential container of layers with a single flattened parameter view.
#pragma once

#include <memory>

#include "nn/layer.h"
#include "nn/param_pack.h"

namespace cmfl::nn {

class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer; validates that its in_dim matches the previous layer's
  /// out_dim (std::invalid_argument otherwise).
  void add(std::unique_ptr<Layer> layer);

  std::size_t layer_count() const noexcept { return layers_.size(); }
  std::size_t in_dim() const;
  std::size_t out_dim() const;

  /// Direct layer access (benchmarks flip Conv2d reference mode; tests
  /// inspect layers).  Index must be < layer_count().
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// One-line architecture summary, e.g. "Conv2d(...) -> ReLU -> Dense(...)".
  std::string summary() const;

  /// Runs all layers; `out` receives the final activation.  Inter-layer
  /// activations live in buffers owned by this Sequential and are reused
  /// across steps (steady state allocates nothing).  Per the Layer lifetime
  /// contract, `in` and `out` must stay alive and unmodified until
  /// backward() completes.
  void forward(const tensor::Matrix& in, tensor::Matrix& out, bool training);

  /// Backpropagates d(loss)/d(output); parameter gradients accumulate in the
  /// layers.  The gradient with respect to the network input is never
  /// computed: the first layer gets a null `grad_in` (Layer::backward), so
  /// e.g. the first Conv2d skips its input scatter and the first Dense its
  /// grad_out·W product.  A caller that needs an input gradient drives the
  /// layer directly, as LstmLm does with its Dense head.
  void backward(const tensor::Matrix& grad_out);

  void init_params(util::Rng& rng);
  void zero_grads();

  /// Flattened views (rebuilt on each call; cheap — spans only).
  ParamPack params();
  ParamPack grads();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Training workspace: acts_[i] holds layer i's output (the last layer
  // writes the caller's `out`), gbuf_a_/gbuf_b_ ping-pong the gradient
  // through backward().  Sized on first use, reused every step.
  std::vector<tensor::Matrix> acts_;
  tensor::Matrix gbuf_a_;
  tensor::Matrix gbuf_b_;
};

}  // namespace cmfl::nn
