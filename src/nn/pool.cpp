#include "nn/pool.h"

#include <limits>
#include <stdexcept>

namespace cmfl::nn {

MaxPool2d::MaxPool2d(const Pool2dSpec& spec) : spec_(spec) {
  if (spec.channels == 0 || spec.in_height == 0 || spec.in_width == 0 ||
      spec.window == 0) {
    throw std::invalid_argument("MaxPool2d: dimensions must be positive");
  }
  if (spec.in_height % spec.window != 0 || spec.in_width % spec.window != 0) {
    throw std::invalid_argument(
        "MaxPool2d: input dims must be divisible by the window");
  }
  out_h_ = spec.in_height / spec.window;
  out_w_ = spec.in_width / spec.window;
}

std::size_t MaxPool2d::in_dim() const noexcept {
  return spec_.channels * spec_.in_height * spec_.in_width;
}

std::size_t MaxPool2d::out_dim() const noexcept {
  return spec_.channels * out_h_ * out_w_;
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(spec_.window) + "x" +
         std::to_string(spec_.window) + ")";
}

void MaxPool2d::forward(const tensor::Matrix& in, tensor::Matrix& out,
                        bool /*training*/) {
  if (in.cols() != in_dim()) {
    throw std::invalid_argument("MaxPool2d::forward: input width mismatch");
  }
  const std::size_t batch = in.rows();
  cached_batch_ = batch;
  out.resize(batch, out_dim());
  argmax_.resize(batch * out_dim());
  const auto ih = spec_.in_height, iw = spec_.in_width, win = spec_.window;
  for (std::size_t n = 0; n < batch; ++n) {
    auto x = in.row(n);
    auto y = out.row(n);
    std::size_t* amax = argmax_.data() + n * out_dim();
    for (std::size_t c = 0; c < spec_.channels; ++c) {
      const float* xp = x.data() + c * ih * iw;
      for (std::size_t oh = 0; oh < out_h_; ++oh) {
        for (std::size_t ow = 0; ow < out_w_; ++ow) {
          // Argmax by selects rather than a branch on the data (which
          // mispredicts on every window whose maximum is not its first
          // element).  Strict `>` keeps the first maximum of a tie, and
          // never picks NaN; a window of only -inf/NaN keeps -inf and its
          // own first element, so backward routes its gradient inside it.
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = oh * win * iw + ow * win;
          for (std::size_t dh = 0; dh < win; ++dh) {
            const std::size_t row = (oh * win + dh) * iw + ow * win;
            for (std::size_t dw = 0; dw < win; ++dw) {
              const float v = xp[row + dw];
              const bool take = v > best;
              best = take ? v : best;
              best_idx = take ? row + dw : best_idx;
            }
          }
          const std::size_t out_idx = (c * out_h_ + oh) * out_w_ + ow;
          y[out_idx] = best;
          amax[out_idx] = c * ih * iw + best_idx;
        }
      }
    }
  }
}

void MaxPool2d::backward(const tensor::Matrix& grad_out,
                         tensor::Matrix* grad_in) {
  if (grad_out.cols() != out_dim() || grad_out.rows() != cached_batch_) {
    throw std::invalid_argument("MaxPool2d::backward: gradient shape mismatch");
  }
  if (grad_in == nullptr) return;
  grad_in->resize(cached_batch_, in_dim());
  grad_in->zero();  // scatter-accumulate below needs a zeroed base
  for (std::size_t n = 0; n < cached_batch_; ++n) {
    auto gy = grad_out.row(n);
    auto gx = grad_in->row(n);
    const std::size_t* amax = argmax_.data() + n * out_dim();
    for (std::size_t i = 0; i < gy.size(); ++i) gx[amax[i]] += gy[i];
  }
}

}  // namespace cmfl::nn
