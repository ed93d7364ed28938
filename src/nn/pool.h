// Max pooling (window = stride, no padding): the classic 2×2 downsampling
// stage between the convolution blocks.
#pragma once

#include "nn/layer.h"

namespace cmfl::nn {

struct Pool2dSpec {
  std::size_t channels = 1;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t window = 2;  // also the stride
};

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(const Pool2dSpec& spec);

  std::size_t in_dim() const noexcept override;
  std::size_t out_dim() const noexcept override;
  std::string name() const override;

  std::size_t out_height() const noexcept { return out_h_; }
  std::size_t out_width() const noexcept { return out_w_; }

  void forward(const tensor::Matrix& in, tensor::Matrix& out,
               bool training) override;
  void backward(const tensor::Matrix& grad_out,
                tensor::Matrix* grad_in) override;

 private:
  Pool2dSpec spec_;
  std::size_t out_h_;
  std::size_t out_w_;
  // argmax_[n * out_dim() + flat output index] = flat input index of the
  // winning element (flat buffer, reused across steps without reallocating)
  std::vector<std::size_t> argmax_;
  std::size_t cached_batch_ = 0;
};

}  // namespace cmfl::nn
