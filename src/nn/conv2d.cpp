#include "nn/conv2d.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "tensor/init.h"
#include "tensor/kernels.h"

namespace cmfl::nn {

Conv2d::Conv2d(const Conv2dSpec& spec) : spec_(spec) {
  if (spec.in_channels == 0 || spec.out_channels == 0 || spec.kernel == 0 ||
      spec.in_height == 0 || spec.in_width == 0) {
    throw std::invalid_argument("Conv2d: dimensions must be positive");
  }
  if (spec.in_height + 2 * spec.padding < spec.kernel ||
      spec.in_width + 2 * spec.padding < spec.kernel) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
  out_h_ = spec.in_height + 2 * spec.padding - spec.kernel + 1;
  out_w_ = spec.in_width + 2 * spec.padding - spec.kernel + 1;
  const std::size_t wsize =
      spec.out_channels * spec.in_channels * spec.kernel * spec.kernel;
  w_.assign(wsize, 0.0f);
  gw_.assign(wsize, 0.0f);
  b_.assign(spec.out_channels, 0.0f);
  gb_.assign(spec.out_channels, 0.0f);
}

std::size_t Conv2d::in_dim() const noexcept {
  return spec_.in_channels * spec_.in_height * spec_.in_width;
}

std::size_t Conv2d::out_dim() const noexcept {
  return spec_.out_channels * out_h_ * out_w_;
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(spec_.in_channels) + "x" +
         std::to_string(spec_.in_height) + "x" + std::to_string(spec_.in_width) +
         " -> " + std::to_string(spec_.out_channels) + "x" +
         std::to_string(out_h_) + "x" + std::to_string(out_w_) + ", k=" +
         std::to_string(spec_.kernel) + ")";
}

float& Conv2d::weight(std::size_t oc, std::size_t ic, std::size_t kh,
                      std::size_t kw) noexcept {
  return w_[((oc * spec_.in_channels + ic) * spec_.kernel + kh) * spec_.kernel +
            kw];
}

float Conv2d::weight(std::size_t oc, std::size_t ic, std::size_t kh,
                     std::size_t kw) const noexcept {
  return w_[((oc * spec_.in_channels + ic) * spec_.kernel + kh) * spec_.kernel +
            kw];
}

namespace {

/// Half-open range [lo, hi) of the u in [0, n) whose tap u + t − pad lands
/// inside an input axis of length `in` (empty when none does).  With u the
/// output position and t the kernel tap, or the other way round, this is
/// every padding bounds check of the naive loops, hoisted out of them.
struct TapRange {
  std::size_t lo;
  std::size_t hi;
};
TapRange inside(std::size_t t, std::size_t pad, std::size_t in,
                std::size_t n) noexcept {
  const std::size_t lo = std::min(n, pad > t ? pad - t : 0);
  const std::size_t end = in + pad > t ? in + pad - t : 0;
  return {lo, std::max(lo, std::min(n, end))};
}

/// dst[j] += g · src[j] for j < len: a separate multiply and add per
/// element, four lanes at a time.  Vector lanes round exactly like the
/// scalar float operations, so the bits are those of the plain loop, which
/// the compiler leaves scalar at these lengths (k ≤ 5 taps per row).
void add_scaled_row(float g, const float* src, float* dst,
                    std::size_t len) noexcept {
  using f4 = float __attribute__((vector_size(16)));
  const f4 gv = {g, g, g, g};
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    f4 sv, dv;
    std::memcpy(&sv, src + j, sizeof sv);
    std::memcpy(&dv, dst + j, sizeof dv);
    dv += gv * sv;
    std::memcpy(dst + j, &dv, sizeof dv);
  }
  for (; j < len; ++j) dst[j] += g * src[j];
}

}  // namespace

void Conv2d::im2col_row(std::span<const float> x, float* col) const {
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  const std::size_t pixels = out_h_ * out_w_;
  // Patch row kidx = (ic·k + kh)·k + kw holds input tap (ic, kh, kw) for
  // every output pixel — the same (ic, kh, kw)-increasing order the naive
  // accumulation walks, so the forward GEMM's k order matches it exactly.
  // The padding bounds are hoisted per tap: output rows [oh.lo, oh.hi) and
  // columns [ow.lo, ow.hi) read the input, one contiguous copy per row;
  // everything outside is an explicit zero.
  std::size_t kidx = 0;
  for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
    const float* xp = x.data() + ic * ih * iw;
    for (std::size_t khi = 0; khi < k; ++khi) {
      const TapRange oh = inside(khi, pad, ih, out_h_);
      for (std::size_t kwi = 0; kwi < k; ++kwi, ++kidx) {
        const TapRange ow = inside(kwi, pad, iw, out_w_);
        float* cr = col + kidx * pixels;
        std::fill(cr, cr + oh.lo * out_w_, 0.0f);
        for (std::size_t r = oh.lo; r < oh.hi; ++r) {
          float* crow = cr + r * out_w_;
          const float* xrow = xp + (r + khi - pad) * iw + (ow.lo + kwi - pad);
          std::fill(crow, crow + ow.lo, 0.0f);
          std::copy(xrow, xrow + (ow.hi - ow.lo), crow + ow.lo);
          std::fill(crow + ow.hi, crow + out_w_, 0.0f);
        }
        std::fill(cr + oh.hi * out_w_, cr + pixels, 0.0f);
      }
    }
  }
}

void Conv2d::scatter_grads_row(std::span<const float> x,
                               std::span<const float> gy, float* gx) {
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  const std::size_t in_c = spec_.in_channels;
  // Same tap visit order (and therefore the same per-element float
  // accumulation order) as backward_ref — (oc, oh, ow) outer with the
  // g == 0 skip, (ic, khi, kwi) taps inner — restructured in three
  // order-preserving ways:
  //  * the g == 0 skip is a branch-free compaction: each output row's
  //    nonzero columns are listed first (up to kChunk at a time, on the
  //    stack), and the tap loops run over that list.  The gradient reaching
  //    a conv layer has passed ReLU and MaxPool backward, so 50–90% of its
  //    entries are exact zeros in no predictable pattern; a branch on each
  //    one mispredicts constantly, and a dense col2im/GEMM formulation would
  //    pay full MACs for them.
  //  * the per-tap padding checks are hoisted into khi/kwi ranges, so the
  //    innermost loops run branch-free over contiguous rows.
  //  * the gW stream (gw += g·x) and the gX stream (gx += g·w) run as two
  //    passes over each list.  They write disjoint arrays, so each element
  //    still sees its terms in the naive order, and a null `gx` (the first
  //    layer, whose input gradient nobody reads) drops the second pass.
  constexpr std::size_t kChunk = 64;
  std::uint32_t nz[kChunk] = {};
  for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
    const float* gp = gy.data() + oc * out_h_ * out_w_;
    for (std::size_t oh = 0; oh < out_h_; ++oh) {
      const TapRange kh = inside(oh, pad, ih, k);
      const float* grow = gp + oh * out_w_;
      for (std::size_t ow0 = 0; ow0 < out_w_; ow0 += kChunk) {
        const std::size_t ow1 = std::min(out_w_, ow0 + kChunk);
        std::size_t count = 0;
        for (std::size_t ow = ow0; ow < ow1; ++ow) {
          nz[count] = static_cast<std::uint32_t>(ow);
          count += grow[ow] != 0.0f;  // NaN stays in, as in the naive skip
        }
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t ow = nz[i];
          const float g = grow[ow];
          const TapRange kw = inside(ow, pad, iw, k);
          const std::size_t len = kw.hi - kw.lo;
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            const float* xp = x.data() + ic * ih * iw + (ow + kw.lo - pad);
            float* gw = gw_.data() + ((oc * in_c + ic) * k) * k + kw.lo;
            for (std::size_t khi = kh.lo; khi < kh.hi; ++khi) {
              add_scaled_row(g, xp + (oh + khi - pad) * iw, gw + khi * k, len);
            }
          }
        }
        if (gx == nullptr) continue;
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t ow = nz[i];
          const float g = grow[ow];
          const TapRange kw = inside(ow, pad, iw, k);
          const std::size_t len = kw.hi - kw.lo;
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            float* gxp = gx + ic * ih * iw + (ow + kw.lo - pad);
            const float* w = w_.data() + ((oc * in_c + ic) * k) * k + kw.lo;
            for (std::size_t khi = kh.lo; khi < kh.hi; ++khi) {
              add_scaled_row(g, w + khi * k, gxp + (oh + khi - pad) * iw, len);
            }
          }
        }
      }
    }
  }
}

void Conv2d::forward(const tensor::Matrix& in, tensor::Matrix& out,
                     bool /*training*/) {
  if (in.cols() != in_dim()) {
    throw std::invalid_argument("Conv2d::forward: input width mismatch");
  }
  if (ref_mode_) {
    forward_ref(in, out);
    return;
  }
  const std::size_t batch = in.rows();
  cached_batch_ = batch;
  in_ptr_ = &in;  // caller-owned; must outlive backward (layer contract)
  out.resize(batch, out_dim());
  const std::size_t patch = spec_.in_channels * spec_.kernel * spec_.kernel;
  const std::size_t pixels = out_h_ * out_w_;
  col_.resize(batch, patch * pixels);
  // Each batch row writes a disjoint output (and col_) row, so the forward
  // pass shards across the kernel pool when large enough (backward stays
  // serial: it accumulates into shared gw_/gb_).
  const std::size_t macs_per_row =
      spec_.out_channels * out_h_ * out_w_ * spec_.in_channels * spec_.kernel *
      spec_.kernel;
  tensor::kernels::parallel_rows(
      batch, batch * macs_per_row, [&](std::size_t n0, std::size_t n1) {
        for (std::size_t n = n0; n < n1; ++n) {
          float* col = col_.row(n).data();
          im2col_row(in.row(n), col);
          auto y = out.row(n);
          // Preload each output row with the bias, then accumulate the patch
          // taps on top: per element this is bias first, then taps with
          // (ic, kh, kw) strictly increasing — the naive loop's exact
          // floating-point sequence.
          for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
            float* yr = y.data() + oc * pixels;
            std::fill(yr, yr + pixels, b_[oc]);
          }
          // The per-sample GEMM itself tiles its out_channels row range over
          // the pool: when the batch loop above ran serial (small batch,
          // e.g. single-image inference on a large plane) this is where the
          // threads come from, and when the batch loop is already sharded
          // the per-sample MAC count sits below the threshold so this stays
          // a single direct call.  Row ranges compose bitwise (kernels.h),
          // so the nesting never changes results.
          tensor::kernels::parallel_rows(
              spec_.out_channels, macs_per_row,
              [&](std::size_t oc0, std::size_t oc1) {
                tensor::kernels::gemm_nn_acc(w_.data(), col, y.data(),
                                             spec_.out_channels, patch, pixels,
                                             oc0, oc1);
              });
        }
      });
}

void Conv2d::backward(const tensor::Matrix& grad_out,
                      tensor::Matrix* grad_in) {
  if (ref_mode_) {
    backward_ref(grad_out, grad_in);
    return;
  }
  if (grad_out.cols() != out_dim() || grad_out.rows() != cached_batch_ ||
      in_ptr_ == nullptr) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }
  const std::size_t batch = grad_out.rows();
  if (grad_in != nullptr) {
    grad_in->resize(batch, in_dim());
    // resize() leaves values unspecified; the scatter accumulates, so zero
    // the whole gradient buffer up front (backward_ref gets this from its
    // freshly constructed Matrix).
    grad_in->zero();
  }
  const std::size_t pixels = out_h_ * out_w_;
  for (std::size_t n = 0; n < batch; ++n) {
    auto gy = grad_out.row(n);
    // gb[oc] += Σ_p gy(oc, p), p strictly increasing per channel — the naive
    // interleaved order, since gb_[oc] only ever receives channel-oc terms
    // and the extra zero-gradient terms are ±0-safe no-op additions.
    tensor::kernels::add_col_sums(gy.data(), pixels, spec_.out_channels, 1,
                                  pixels, gb_);
    scatter_grads_row(in_ptr_->row(n), gy,
                      grad_in != nullptr ? grad_in->row(n).data() : nullptr);
  }
}

// ---------------------------------------------------------------------------
// Reference implementation: the original naive loops, kept verbatim for
// equivalence tests and the pre-PR benchmark baseline.
// ---------------------------------------------------------------------------

void Conv2d::forward_ref(const tensor::Matrix& in, tensor::Matrix& out) {
  cached_in_ = in;
  cached_batch_ = in.rows();
  const std::size_t batch = in.rows();
  out = tensor::Matrix(batch, out_dim());
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  const std::size_t macs_per_row =
      spec_.out_channels * out_h_ * out_w_ * spec_.in_channels * k * k;
  tensor::kernels::parallel_rows(
      batch, batch * macs_per_row, [&](std::size_t n0, std::size_t n1) {
        for (std::size_t n = n0; n < n1; ++n) {
          auto x = in.row(n);
          auto y = out.row(n);
          for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
            for (std::size_t oh = 0; oh < out_h_; ++oh) {
              for (std::size_t ow = 0; ow < out_w_; ++ow) {
                float acc = b_[oc];
                for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
                  const float* xp = x.data() + ic * ih * iw;
                  for (std::size_t khi = 0; khi < k; ++khi) {
                    // padded row index = oh + khi - pad; skip out-of-bounds
                    // rows.
                    const std::size_t r = oh + khi;
                    if (r < pad || r >= ih + pad) continue;
                    const std::size_t xr = r - pad;
                    for (std::size_t kwi = 0; kwi < k; ++kwi) {
                      const std::size_t c = ow + kwi;
                      if (c < pad || c >= iw + pad) continue;
                      acc += weight(oc, ic, khi, kwi) * xp[xr * iw + (c - pad)];
                    }
                  }
                }
                y[(oc * out_h_ + oh) * out_w_ + ow] = acc;
              }
            }
          }
        }
      });
}

void Conv2d::backward_ref(const tensor::Matrix& grad_out,
                          tensor::Matrix* grad_in_or_null) {
  if (grad_out.cols() != out_dim() ||
      grad_out.rows() != cached_in_.rows()) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }
  const std::size_t batch = grad_out.rows();
  // The naive loops always compute the input gradient; without a caller
  // buffer it lands in a discarded local.
  tensor::Matrix discarded;
  tensor::Matrix& grad_in =
      grad_in_or_null != nullptr ? *grad_in_or_null : discarded;
  grad_in = tensor::Matrix(batch, in_dim());
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  for (std::size_t n = 0; n < batch; ++n) {
    auto x = cached_in_.row(n);
    auto gy = grad_out.row(n);
    auto gx = grad_in.row(n);
    for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
      for (std::size_t oh = 0; oh < out_h_; ++oh) {
        for (std::size_t ow = 0; ow < out_w_; ++ow) {
          const float g = gy[(oc * out_h_ + oh) * out_w_ + ow];
          if (g == 0.0f) continue;
          gb_[oc] += g;
          for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
            const float* xp = x.data() + ic * ih * iw;
            float* gxp = gx.data() + ic * ih * iw;
            for (std::size_t khi = 0; khi < k; ++khi) {
              const std::size_t r = oh + khi;
              if (r < pad || r >= ih + pad) continue;
              const std::size_t xr = r - pad;
              for (std::size_t kwi = 0; kwi < k; ++kwi) {
                const std::size_t c = ow + kwi;
                if (c < pad || c >= iw + pad) continue;
                const std::size_t xi = xr * iw + (c - pad);
                gw_[((oc * spec_.in_channels + ic) * k + khi) * k + kwi] +=
                    g * xp[xi];
                gxp[xi] += g * weight(oc, ic, khi, kwi);
              }
            }
          }
        }
      }
    }
  }
}

void Conv2d::init_params(util::Rng& rng) {
  const std::size_t fan_in =
      spec_.in_channels * spec_.kernel * spec_.kernel;
  tensor::he_normal(w_, fan_in, rng);
  std::fill(b_.begin(), b_.end(), 0.0f);
}

void Conv2d::collect_params(std::vector<std::span<float>>& out) {
  out.push_back(w_);
  out.push_back(b_);
}

void Conv2d::collect_grads(std::vector<std::span<float>>& out) {
  out.push_back(gw_);
  out.push_back(gb_);
}

void Conv2d::zero_grads() {
  std::fill(gw_.begin(), gw_.end(), 0.0f);
  std::fill(gb_.begin(), gb_.end(), 0.0f);
}

}  // namespace cmfl::nn
