// Layer interface for the feed-forward stack.
//
// Activations are batches: a tensor::Matrix whose rows are flattened samples.
// Convolutional layers carry their own (c, h, w) interpretation of the flat
// row.  Layers own their parameters and gradient buffers and expose both as
// spans so models can be flattened into the single update vector that the
// CMFL core operates on.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace cmfl::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Flattened input/output widths; Sequential validates chaining.
  virtual std::size_t in_dim() const noexcept = 0;
  virtual std::size_t out_dim() const noexcept = 0;

  /// Human-readable layer kind, for model summaries.
  virtual std::string name() const = 0;

  /// Computes `out` from `in` (resizing `out` as needed) and caches whatever
  /// backward() will need.  `training` toggles stochastic behaviour
  /// (dropout); inference paths pass false.
  ///
  /// Lifetime contract (zero-allocation hot path): layers cache *pointers*
  /// to `in` (and may reference `out`) instead of deep-copying, so both
  /// matrices must stay alive and unmodified until the matching backward()
  /// completes.  Sequential owns the inter-layer activation buffers and
  /// guarantees this for the stack; direct callers (LstmLm's head, tests)
  /// must keep their activations alive themselves.
  virtual void forward(const tensor::Matrix& in, tensor::Matrix& out,
                       bool training) = 0;

  /// Given d(loss)/d(out), accumulates parameter gradients and, when
  /// `grad_in` is non-null, writes d(loss)/d(in) into it (resizing as
  /// needed; it must not alias grad_out).  A null `grad_in` skips the input
  /// gradient: Sequential passes null to its first layer, whose input
  /// gradient nobody reads.  Parameter gradients are the same bits either
  /// way.  Must be called after a matching forward().
  virtual void backward(const tensor::Matrix& grad_out,
                        tensor::Matrix* grad_in) = 0;

  /// Randomizes parameters (no-op for parameterless layers).
  virtual void init_params(util::Rng& rng) { (void)rng; }

  /// Appends views over this layer's parameters / gradients.  The order must
  /// be identical between the two calls and stable across the layer's
  /// lifetime.
  virtual void collect_params(std::vector<std::span<float>>& out) {
    (void)out;
  }
  virtual void collect_grads(std::vector<std::span<float>>& out) { (void)out; }

  /// Zeroes gradient accumulators.
  virtual void zero_grads() {}
};

}  // namespace cmfl::nn
