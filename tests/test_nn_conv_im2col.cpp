// Randomized bitwise equivalence of the optimized Conv2d path (im2col/GEMM
// forward, hoisted-bounds sparse scatter backward) against the retained
// naive reference loops (set_reference_impl(true)), across kernel /
// padding / channel / rectangular-shape edge cases.  Equality is checked
// with memcmp — bit-identical, not just approximately equal — because the
// optimized path is designed to preserve the naive accumulation order
// exactly (see conv2d.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace cmfl::nn {
namespace {

// This file asserts *bitwise* equality against the naive reference loops,
// which is a property of the exact kernel tier; the FMA fast tier is
// ULP-bounded instead (test_tensor_simd.cpp), so pin the tier here.
const bool kForceExactTier = [] {
  tensor::kernels::set_tier(tensor::kernels::Tier::kExact);
  return true;
}();

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void copy_params(Conv2d& from, Conv2d& to) {
  std::vector<std::span<float>> src, dst;
  from.collect_params(src);
  to.collect_params(dst);
  ASSERT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src[i].size(), dst[i].size());
    std::memcpy(dst[i].data(), src[i].data(), src[i].size() * sizeof(float));
  }
}

void check_equivalence(const Conv2dSpec& spec, std::size_t batch,
                       util::Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "in_c=" << spec.in_channels << " ih=" << spec.in_height
               << " iw=" << spec.in_width << " out_c=" << spec.out_channels
               << " k=" << spec.kernel << " pad=" << spec.padding
               << " batch=" << batch);
  Conv2d gemm(spec);
  Conv2d ref(spec);
  ref.set_reference_impl(true);
  gemm.init_params(rng);
  copy_params(gemm, ref);

  tensor::Matrix x(batch, gemm.in_dim());
  for (float& v : x.flat()) v = rng.normal_f(0.0f, 1.0f);

  tensor::Matrix out_gemm, out_ref;
  gemm.forward(x, out_gemm, /*training=*/true);
  ref.forward(x, out_ref, /*training=*/true);
  EXPECT_TRUE(bitwise_equal(out_gemm.flat(), out_ref.flat()))
      << "forward outputs diverge";

  // ~30% exact zeros in the upstream gradient exercise the naive path's
  // `g == 0` skip against the GEMM's explicit multiply-by-zero.
  tensor::Matrix gy(batch, gemm.out_dim());
  for (float& v : gy.flat()) {
    v = rng.uniform() < 0.3 ? 0.0f : rng.normal_f(0.0f, 1.0f);
  }

  gemm.zero_grads();
  ref.zero_grads();
  tensor::Matrix gx_gemm, gx_ref;
  gemm.backward(gy, &gx_gemm);
  ref.backward(gy, &gx_ref);
  EXPECT_TRUE(bitwise_equal(gx_gemm.flat(), gx_ref.flat()))
      << "input gradients diverge";

  std::vector<std::span<float>> g_gemm, g_ref;
  gemm.collect_grads(g_gemm);
  ref.collect_grads(g_ref);
  ASSERT_EQ(g_gemm.size(), g_ref.size());
  for (std::size_t i = 0; i < g_gemm.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(g_gemm[i], g_ref[i]))
        << "parameter gradient segment " << i << " diverges";
  }
}

Conv2dSpec make_spec(std::size_t in_c, std::size_t ih, std::size_t iw,
                     std::size_t out_c, std::size_t k, std::size_t pad) {
  Conv2dSpec spec;
  spec.in_channels = in_c;
  spec.in_height = ih;
  spec.in_width = iw;
  spec.out_channels = out_c;
  spec.kernel = k;
  spec.padding = pad;
  return spec;
}

TEST(ConvIm2colEquivalence, KernelPaddingChannelEdgeCases) {
  util::Rng rng(101);
  // kernel 1 (pointwise), no padding
  check_equivalence(make_spec(1, 5, 5, 1, 1, 0), 2, rng);
  check_equivalence(make_spec(3, 4, 6, 2, 1, 0), 3, rng);
  // kernel 3, `same` padding, rectangular input
  check_equivalence(make_spec(2, 6, 4, 3, 3, 1), 2, rng);
  check_equivalence(make_spec(3, 7, 5, 3, 3, 1), 1, rng);
  // kernel 3, no padding, minimal input -> 1×1 output
  check_equivalence(make_spec(1, 3, 3, 2, 3, 0), 2, rng);
  // kernel 3, full padding (pad = k−1): output larger than input
  check_equivalence(make_spec(2, 4, 4, 1, 3, 2), 2, rng);
  // kernel 5, `same` padding (the paper's CNN shape)
  check_equivalence(make_spec(3, 8, 8, 2, 5, 2), 2, rng);
  // kernel 5, full padding, rectangular
  check_equivalence(make_spec(2, 5, 7, 2, 5, 4), 1, rng);
  // 1×1 input, 1×1 kernel: degenerate single-pixel case
  check_equivalence(make_spec(1, 1, 1, 1, 1, 0), 1, rng);
}

TEST(ConvIm2colEquivalence, RandomizedConfigs) {
  util::Rng rng(202);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t k = 1 + 2 * rng.uniform_index(3);  // 1, 3, 5
    const std::size_t pad = rng.uniform_index(k);        // 0 .. k−1
    // Input large enough for at least one output pixel.
    const std::size_t min_side = k > 2 * pad ? k - 2 * pad : 1;
    const std::size_t ih = min_side + rng.uniform_index(6);
    const std::size_t iw = min_side + rng.uniform_index(6);
    const std::size_t in_c = 1 + rng.uniform_index(3);
    const std::size_t out_c = 1 + rng.uniform_index(3);
    const std::size_t batch = 1 + rng.uniform_index(4);
    check_equivalence(make_spec(in_c, ih, iw, out_c, k, pad), batch, rng);
  }
}

// Repeated steps through the same instance must keep the workspace-cached
// GEMM path equivalent (stale-buffer regression guard).
TEST(ConvIm2colEquivalence, RepeatedStepsReuseWorkspaces) {
  util::Rng rng(303);
  const Conv2dSpec spec = make_spec(2, 6, 6, 3, 3, 1);
  Conv2d gemm(spec);
  Conv2d ref(spec);
  ref.set_reference_impl(true);
  gemm.init_params(rng);
  copy_params(gemm, ref);

  for (int step = 0; step < 4; ++step) {
    // Vary the batch size to exercise workspace re-sizing.
    const std::size_t batch = 1 + (static_cast<std::size_t>(step) % 3);
    tensor::Matrix x(batch, gemm.in_dim());
    for (float& v : x.flat()) v = rng.normal_f(0.0f, 1.0f);
    tensor::Matrix gy(batch, gemm.out_dim());
    for (float& v : gy.flat()) v = rng.normal_f(0.0f, 1.0f);

    tensor::Matrix out_gemm, out_ref, gx_gemm, gx_ref;
    gemm.forward(x, out_gemm, true);
    ref.forward(x, out_ref, true);
    EXPECT_TRUE(bitwise_equal(out_gemm.flat(), out_ref.flat()))
        << "step " << step;
    gemm.backward(gy, &gx_gemm);
    ref.backward(gy, &gx_ref);
    EXPECT_TRUE(bitwise_equal(gx_gemm.flat(), gx_ref.flat()))
        << "step " << step;
  }
  // Accumulated parameter gradients across all steps must match too.
  std::vector<std::span<float>> g_gemm, g_ref;
  gemm.collect_grads(g_gemm);
  ref.collect_grads(g_ref);
  for (std::size_t i = 0; i < g_gemm.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(g_gemm[i], g_ref[i])) << "grad segment " << i;
  }
}

/// Runs one forward/backward of both paths on (x, gy) and checks that the
/// parameter and input gradients agree bit for bit.
void check_backward(Conv2d& gemm, Conv2d& ref, const tensor::Matrix& x,
                    const tensor::Matrix& gy) {
  tensor::Matrix out_gemm, out_ref, gx_gemm, gx_ref;
  gemm.forward(x, out_gemm, true);
  ref.forward(x, out_ref, true);
  gemm.zero_grads();
  ref.zero_grads();
  gemm.backward(gy, &gx_gemm);
  ref.backward(gy, &gx_ref);
  EXPECT_TRUE(bitwise_equal(gx_gemm.flat(), gx_ref.flat()))
      << "input gradients diverge";
  std::vector<std::span<float>> g_gemm, g_ref;
  gemm.collect_grads(g_gemm);
  ref.collect_grads(g_ref);
  ASSERT_EQ(g_gemm.size(), g_ref.size());
  for (std::size_t i = 0; i < g_gemm.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(g_gemm[i], g_ref[i]))
        << "parameter gradient segment " << i << " diverges";
  }
}

// An evaluation-sized batch shards Conv2d::forward's rows across the kernel
// pool, each row writing its own patch-matrix and output rows.  The result
// must equal the serial forward and the naive loops bit for bit (and stay
// race-free under TSan: no scratch may be shared between rows).
TEST(ConvIm2colEquivalence, ShardedLargeBatchForwardMatchesSerial) {
  util::Rng rng(808);
  const Conv2dSpec spec = make_spec(4, 6, 6, 8, 5, 2);
  Conv2d gemm(spec);
  Conv2d ref(spec);
  ref.set_reference_impl(true);
  gemm.init_params(rng);
  copy_params(gemm, ref);
  // 200 rows × 28,800 MACs per row clears kParallelMacThreshold.
  tensor::Matrix x(200, gemm.in_dim());
  for (float& v : x.flat()) v = rng.normal_f(0.0f, 1.0f);
  tensor::Matrix sharded, serial, naive;
  tensor::kernels::set_max_threads(4);
  gemm.forward(x, sharded, false);
  ref.forward(x, naive, false);
  tensor::kernels::set_max_threads(1);
  gemm.forward(x, serial, false);
  tensor::kernels::set_max_threads(0);
  EXPECT_TRUE(bitwise_equal(sharded.flat(), serial.flat()));
  EXPECT_TRUE(bitwise_equal(sharded.flat(), naive.flat()));
}

// Gradients shaped like the ones training produces: MaxPool backward leaves
// at most one nonzero per 2×2 window and ReLU backward zeroes about half of
// those, so ≥ 75% of the entries are exact zeros (some of them -0).  The
// nonzero compaction must visit the survivors in the naive order.
TEST(ConvIm2colEquivalence, MaxPoolPatternSparseGradients) {
  util::Rng rng(505);
  for (const Conv2dSpec& spec :
       {make_spec(1, 12, 12, 4, 5, 2), make_spec(4, 6, 6, 8, 5, 2),
        make_spec(2, 8, 6, 3, 3, 1), make_spec(1, 2, 3, 2, 1, 2),
        make_spec(1, 3, 70, 2, 3, 1) /* rows wider than one stack list */}) {
    Conv2d gemm(spec);
    Conv2d ref(spec);
    ref.set_reference_impl(true);
    gemm.init_params(rng);
    copy_params(gemm, ref);
    const std::size_t batch = 3;
    tensor::Matrix x(batch, gemm.in_dim());
    for (float& v : x.flat()) v = rng.normal_f(0.0f, 1.0f);
    tensor::Matrix gy(batch, gemm.out_dim());
    gy.zero();
    const std::size_t oh = gemm.out_height(), ow = gemm.out_width();
    std::size_t zeros = 0;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t c = 0; c < spec.out_channels; ++c) {
        for (std::size_t r = 0; r < oh; r += 2) {
          for (std::size_t q = 0; q < ow; q += 2) {
            const std::size_t dr = rng.uniform_index(std::min<std::size_t>(2, oh - r));
            const std::size_t dq = rng.uniform_index(std::min<std::size_t>(2, ow - q));
            const double u = rng.uniform();
            gy.at(n, (c * oh + r + dr) * ow + q + dq) =
                u < 0.5 ? rng.normal_f(0.0f, 1.0f) : (u < 0.6 ? -0.0f : 0.0f);
          }
        }
      }
    }
    for (float v : gy.flat()) zeros += v == 0.0f;
    EXPECT_GE(zeros * 4, gy.size() * 3);
    check_backward(gemm, ref, x, gy);
  }
}

// Taps of zero gradients must stay skipped: an inf or NaN input or weight
// that only zero-gradient entries touch must not leak NaN into any gradient.
TEST(ConvIm2colEquivalence, ZeroGradientTapsSkipNonFiniteOperands) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(606);
  const Conv2dSpec spec = make_spec(2, 7, 7, 3, 3, 1);
  Conv2d gemm(spec);
  Conv2d ref(spec);
  ref.set_reference_impl(true);
  gemm.init_params(rng);
  // Channel 1's weights are poisoned; its gradient rows below are all zero.
  std::vector<std::span<float>> params;
  gemm.collect_params(params);
  const std::size_t taps = spec.in_channels * spec.kernel * spec.kernel;
  params[0][1 * taps + 0] = inf;
  params[0][1 * taps + 4] = qnan;
  copy_params(gemm, ref);

  const std::size_t batch = 2, side = 7;
  tensor::Matrix x(batch, gemm.in_dim());
  for (float& v : x.flat()) v = rng.normal_f(0.0f, 1.0f);
  // Poisoned inputs at (ic 0, 3, 3) and (ic 1, 0, 6) of sample 0.
  x.at(0, 0 * side * side + 3 * side + 3) = qnan;
  x.at(0, 1 * side * side + 0 * side + 6) = -inf;
  tensor::Matrix gy(batch, gemm.out_dim());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < spec.out_channels; ++c) {
      for (std::size_t r = 0; r < side; ++r) {
        for (std::size_t q = 0; q < side; ++q) {
          // Output (r, q) reads inputs within one pixel of it (k 3, pad 1).
          const bool near_nan = r >= 2 && r <= 4 && q >= 2 && q <= 4;
          const bool near_inf = r <= 1 && q >= 5;
          const bool zero = c == 1 || (n == 0 && (near_nan || near_inf));
          gy.at(n, (c * side + r) * side + q) =
              zero ? (q % 2 ? -0.0f : 0.0f) : rng.normal_f(0.0f, 1.0f);
        }
      }
    }
  }
  check_backward(gemm, ref, x, gy);
  tensor::Matrix out, gx;
  gemm.forward(x, out, true);
  gemm.zero_grads();
  gemm.backward(gy, &gx);
  std::vector<std::span<float>> grads;
  gemm.collect_grads(grads);
  for (const auto& seg : grads) {
    for (float v : seg) EXPECT_TRUE(std::isfinite(v));
  }
  for (float v : gx.flat()) EXPECT_TRUE(std::isfinite(v));
}

// The im2col patch matrix against a per-element reference, on both kernel
// tiers.  The patches are private, so they are read through the forward
// pass: output channel t has a one-hot weight on tap t and zero bias, which
// makes its output row the patch row of tap t exactly (every other term is
// a ±0 no-op, and a one-hot FMA is exact too).
TEST(ConvIm2colEquivalence, PatchMatrixMatchesPerElementReference) {
  util::Rng rng(707);
  std::vector<tensor::kernels::Tier> tiers = {tensor::kernels::Tier::kExact};
  if (tensor::kernels::fast_tier_available()) {
    tiers.push_back(tensor::kernels::Tier::kFast);
  }
  for (const auto& [in_c, ih, iw, k, pad] :
       std::vector<std::array<std::size_t, 5>>{{1, 12, 12, 5, 2},
                                              {2, 5, 7, 3, 1},
                                              {1, 3, 4, 5, 4},
                                              {2, 4, 4, 3, 0}}) {
    const std::size_t taps = in_c * k * k;
    const Conv2dSpec spec = make_spec(in_c, ih, iw, taps, k, pad);
    Conv2d conv(spec);
    std::vector<std::span<float>> params;
    conv.collect_params(params);
    for (float& v : params[0]) v = 0.0f;
    for (float& v : params[1]) v = 0.0f;
    for (std::size_t t = 0; t < taps; ++t) params[0][t * taps + t] = 1.0f;

    tensor::Matrix x(2, conv.in_dim());
    for (float& v : x.flat()) {
      v = rng.normal_f(0.0f, 1.0f);
      if (v == 0.0f) v = 1.0f;  // a -0 input would read back as +0
    }
    const std::size_t oh = conv.out_height(), ow = conv.out_width();
    for (const auto tier : tiers) {
      tensor::kernels::set_tier(tier);
      tensor::Matrix out;
      conv.forward(x, out, false);
      for (std::size_t n = 0; n < x.rows(); ++n) {
        for (std::size_t t = 0; t < taps; ++t) {
          const std::size_t ic = t / (k * k), kh = t / k % k, kw = t % k;
          for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t q = 0; q < ow; ++q) {
              const std::size_t xr = r + kh, xc = q + kw;
              const bool inside =
                  xr >= pad && xr < ih + pad && xc >= pad && xc < iw + pad;
              const float want =
                  inside ? x.at(n, (ic * ih + xr - pad) * iw + xc - pad) : 0.0f;
              const float got = out.at(n, (t * oh + r) * ow + q);
              ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
                  << "tier " << static_cast<int>(tier) << " n " << n
                  << " tap " << t << " pixel (" << r << ", " << q << ")";
            }
          }
        }
      }
    }
    tensor::kernels::set_tier(tensor::kernels::Tier::kExact);
  }
}

}  // namespace
}  // namespace cmfl::nn
