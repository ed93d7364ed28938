// Behavioural (non-gradient) layer tests: shapes, validation, forward
// semantics, parameter bookkeeping.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/param_pack.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace cmfl::nn {
namespace {

TEST(Dense, ForwardComputesAffineMap) {
  Dense dense(2, 2);
  std::vector<std::span<float>> params;
  dense.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  // W = [[1, 2], [3, 4]], b = [10, 20]
  params[0][0] = 1; params[0][1] = 2; params[0][2] = 3; params[0][3] = 4;
  params[1][0] = 10; params[1][1] = 20;
  tensor::Matrix in(1, 2, {5, 6});
  tensor::Matrix out;
  dense.forward(in, out, false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1 * 5 + 2 * 6 + 10);
  EXPECT_FLOAT_EQ(out.at(0, 1), 3 * 5 + 4 * 6 + 20);
}

TEST(Dense, RejectsBadShapes) {
  EXPECT_THROW(Dense(0, 3), std::invalid_argument);
  Dense dense(3, 2);
  tensor::Matrix wrong(1, 4);
  tensor::Matrix out;
  EXPECT_THROW(dense.forward(wrong, out, false), std::invalid_argument);
}

TEST(ReLU, ClampsNegative) {
  ReLU relu(3);
  tensor::Matrix in(1, 3, {-1.0f, 0.0f, 2.0f});
  tensor::Matrix out;
  relu.forward(in, out, false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 2.0f);
}

TEST(ReLU, BackwardMasksByInput) {
  ReLU relu(2);
  tensor::Matrix in(1, 2, {-1.0f, 1.0f});
  tensor::Matrix out;
  relu.forward(in, out, true);
  tensor::Matrix grad_out(1, 2, {5.0f, 7.0f});
  tensor::Matrix grad_in;
  relu.backward(grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 1), 7.0f);
}

// The bit-mask ReLU backward against the ternary it replaced, bit for bit:
// ±0 and negative inputs mask, NaN inputs pass the gradient through, and
// every gradient value (NaN payloads and -0 included) survives unchanged.
TEST(ReLU, BackwardMatchesTernaryBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> inputs = {
      0.0f, -0.0f, qnan, -qnan, inf, -inf, denorm, -denorm,
      std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
      1.5f, -1.5f, std::bit_cast<float>(0x7fa00001u) /* signalling NaN */};
  const std::vector<float> grads = {3.0f, -0.0f, qnan, -2.0f, inf, -inf,
                                    denorm, 7.0f};
  const std::size_t n = inputs.size() * grads.size();
  tensor::Matrix in(1, n), grad_out(1, n);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < grads.size(); ++j) {
      in.at(0, i * grads.size() + j) = inputs[i];
      grad_out.at(0, i * grads.size() + j) = grads[j];
    }
  }
  ReLU relu(n);
  tensor::Matrix out, grad_in;
  relu.forward(in, out, true);
  relu.backward(grad_out, &grad_in);
  for (std::size_t i = 0; i < n; ++i) {
    const float ci = in.at(0, i);
    const float want = ci <= 0.0f ? 0.0f : grad_out.at(0, i);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(grad_in.at(0, i)),
              std::bit_cast<std::uint32_t>(want))
        << "input bits " << std::hex << std::bit_cast<std::uint32_t>(ci);
  }
}

TEST(ReLU, NullGradInSkipsTheInputGradient) {
  ReLU relu(2);
  tensor::Matrix in(1, 2, {-1.0f, 1.0f});
  tensor::Matrix out;
  relu.forward(in, out, true);
  tensor::Matrix grad_out(1, 2, {5.0f, 7.0f});
  EXPECT_NO_THROW(relu.backward(grad_out, nullptr));
}

TEST(Tanh, Saturates) {
  Tanh tanh_layer(1);
  tensor::Matrix in(1, 1, {100.0f});
  tensor::Matrix out;
  tanh_layer.forward(in, out, false);
  EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-5);
}

TEST(Sigmoid, KnownValues) {
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(sigmoid(-100.0f), 0.0f, 1e-6);
}

TEST(Conv2d, OutputDimsSameAndValid) {
  Conv2dSpec same{1, 8, 8, 4, 5, 2};
  Conv2d conv_same(same);
  EXPECT_EQ(conv_same.out_height(), 8u);
  EXPECT_EQ(conv_same.out_width(), 8u);
  Conv2dSpec valid{1, 8, 8, 4, 5, 0};
  Conv2d conv_valid(valid);
  EXPECT_EQ(conv_valid.out_height(), 4u);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1: output == input.
  Conv2dSpec spec{1, 4, 4, 1, 1, 0};
  Conv2d conv(spec);
  std::vector<std::span<float>> params;
  conv.collect_params(params);
  params[0][0] = 1.0f;  // single weight
  tensor::Matrix in(1, 16);
  for (std::size_t i = 0; i < 16; ++i) in.flat()[i] = static_cast<float>(i);
  tensor::Matrix out;
  conv.forward(in, out, false);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(out.flat()[i], static_cast<float>(i));
  }
}

TEST(Conv2d, RejectsOversizedKernel) {
  Conv2dSpec spec{1, 3, 3, 1, 7, 0};
  EXPECT_THROW(Conv2d{spec}, std::invalid_argument);
}

TEST(MaxPool2d, PicksWindowMaximum) {
  Pool2dSpec spec{1, 4, 4, 2};
  MaxPool2d pool(spec);
  tensor::Matrix in(1, 16);
  for (std::size_t i = 0; i < 16; ++i) in.flat()[i] = static_cast<float>(i);
  tensor::Matrix out;
  pool.forward(in, out, false);
  ASSERT_EQ(out.cols(), 4u);
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 13.0f);
  EXPECT_FLOAT_EQ(out.at(0, 3), 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  Pool2dSpec spec{1, 2, 2, 2};
  MaxPool2d pool(spec);
  tensor::Matrix in(1, 4, {1.0f, 9.0f, 3.0f, 2.0f});
  tensor::Matrix out;
  pool.forward(in, out, false);
  tensor::Matrix grad_out(1, 1, {4.0f});
  tensor::Matrix grad_in;
  pool.backward(grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 2), 0.0f);
}

// The select-based MaxPool forward against the branchy per-element loop it
// replaced: outputs bit for bit, and the argmax routing compared through
// backward.  Ties keep the first maximum, NaN is never picked, and a window
// of only -inf or NaN keeps -inf and routes to its plane's element 0.
TEST(MaxPool2d, ForwardMatchesPerElementReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t channels = 2, side = 6, win = 2;
  const std::size_t plane = side * side, out_side = side / win;
  util::Rng rng(404);
  tensor::Matrix in(2, channels * plane);
  for (float& v : in.flat()) {
    // Few distinct values, so many windows tie.
    v = static_cast<float>(rng.uniform_index(3)) - 1.0f;
  }
  // Row 0: special windows in channel 0.
  const auto set_window = [&](std::size_t n, std::size_t c, std::size_t oh,
                              std::size_t ow, std::vector<float> vals) {
    for (std::size_t d = 0; d < win * win; ++d) {
      in.at(n, c * plane + (oh * win + d / win) * side + ow * win + d % win) =
          vals[d];
    }
  };
  set_window(0, 0, 0, 1, {-inf, -inf, -inf, -inf});
  set_window(0, 0, 0, 2, {qnan, qnan, qnan, qnan});
  set_window(0, 0, 1, 0, {qnan, 2.0f, qnan, 2.0f});
  set_window(0, 0, 1, 1, {-inf, qnan, -inf, -0.0f});
  set_window(0, 0, 1, 2, {0.0f, -0.0f, 0.0f, -0.0f});
  set_window(0, 0, 2, 0, {-0.0f, 0.0f, -0.0f, 0.0f});
  set_window(1, 1, 2, 2, {inf, inf, qnan, inf});

  Pool2dSpec spec{channels, side, side, win};
  MaxPool2d pool(spec);
  tensor::Matrix out;
  pool.forward(in, out, true);
  tensor::Matrix grad_out(in.rows(), pool.out_dim());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_out.flat()[i] = static_cast<float>(i + 1);
  }
  tensor::Matrix grad_in;
  pool.backward(grad_out, &grad_in);

  tensor::Matrix want_grad(in.rows(), in.cols());
  want_grad.zero();
  for (std::size_t n = 0; n < in.rows(); ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* xp = in.row(n).data() + c * plane;
      for (std::size_t oh = 0; oh < out_side; ++oh) {
        for (std::size_t ow = 0; ow < out_side; ++ow) {
          float best = -inf;
          std::size_t best_idx = oh * win * side + ow * win;  // first element
          for (std::size_t dh = 0; dh < win; ++dh) {
            for (std::size_t dw = 0; dw < win; ++dw) {
              const std::size_t idx = (oh * win + dh) * side + ow * win + dw;
              if (xp[idx] > best) {
                best = xp[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t o = (c * out_side + oh) * out_side + ow;
          EXPECT_EQ(std::bit_cast<std::uint32_t>(out.at(n, o)),
                    std::bit_cast<std::uint32_t>(best))
              << "n " << n << " output " << o;
          want_grad.at(n, c * plane + best_idx) += grad_out.at(n, o);
        }
      }
    }
  }
  EXPECT_EQ(std::memcmp(grad_in.flat().data(), want_grad.flat().data(),
                        grad_in.size() * sizeof(float)),
            0);
  // The all -inf window (0, 1) and the all-NaN window (0, 2) of row 0,
  // channel 0 route their gradients to their own first elements, which no
  // other window covers.
  EXPECT_EQ(grad_in.at(0, win), grad_out.at(0, 1));
  EXPECT_EQ(grad_in.at(0, 2 * win), grad_out.at(0, 2));
}

TEST(MaxPool2d, RejectsIndivisibleDims) {
  Pool2dSpec spec{1, 5, 4, 2};
  EXPECT_THROW(MaxPool2d{spec}, std::invalid_argument);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop(4, 0.5f);
  tensor::Matrix in(2, 4);
  for (float& v : in.flat()) v = 3.0f;
  tensor::Matrix out;
  drop.forward(in, out, /*training=*/false);
  for (float v : out.flat()) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(Dropout, TrainingZeroesRoughlyRateFraction) {
  Dropout drop(1000, 0.3f, 99);
  tensor::Matrix in(1, 1000);
  for (float& v : in.flat()) v = 1.0f;
  tensor::Matrix out;
  drop.forward(in, out, /*training=*/true);
  int zeros = 0;
  for (float v : out.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.7f, 1e-5);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.3, 0.05);
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(Dropout(4, 1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout(4, -0.1f), std::invalid_argument);
}

TEST(Embedding, LookupGathersRows) {
  Embedding emb(4, 2);
  auto table = emb.params();
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<float>(i);
  }
  std::vector<int> tokens = {2, 0};
  const tensor::Matrix out = emb.lookup(tokens);
  EXPECT_FLOAT_EQ(out.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
}

TEST(Embedding, RejectsOutOfRangeTokens) {
  Embedding emb(4, 2);
  std::vector<int> bad = {4};
  EXPECT_THROW(emb.lookup(bad), std::invalid_argument);
  std::vector<int> negative = {-1};
  EXPECT_THROW(emb.lookup(negative), std::invalid_argument);
}

TEST(Embedding, GradAccumulatesRepeatedTokens) {
  Embedding emb(3, 1);
  std::vector<int> tokens = {1, 1};
  tensor::Matrix grad(2, 1, {2.0f, 3.0f});
  emb.accumulate_grad(tokens, grad);
  EXPECT_FLOAT_EQ(emb.grads()[1], 5.0f);
}

TEST(Sequential, ValidatesChaining) {
  Sequential net;
  net.add(std::make_unique<Dense>(4, 8));
  EXPECT_THROW(net.add(std::make_unique<Dense>(9, 2)), std::invalid_argument);
  net.add(std::make_unique<ReLU>(8));
  EXPECT_EQ(net.in_dim(), 4u);
  EXPECT_EQ(net.out_dim(), 8u);
}

TEST(Sequential, SummaryListsLayers) {
  Sequential net;
  net.add(std::make_unique<Dense>(4, 8));
  net.add(std::make_unique<ReLU>(8));
  const std::string s = net.summary();
  EXPECT_NE(s.find("Dense(4->8)"), std::string::npos);
  EXPECT_NE(s.find("ReLU"), std::string::npos);
}

TEST(ParamPack, RoundTripAndAxpy) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {4, 5};
  ParamPack pack({std::span<float>(a), std::span<float>(b)});
  EXPECT_EQ(pack.total_size(), 5u);
  auto flat = pack.to_vector();
  EXPECT_FLOAT_EQ(flat[3], 4.0f);
  std::vector<float> replacement = {10, 20, 30, 40, 50};
  pack.copy_from(replacement);
  EXPECT_FLOAT_EQ(a[2], 30.0f);
  EXPECT_FLOAT_EQ(b[1], 50.0f);
  std::vector<float> delta = {1, 1, 1, 1, 1};
  pack.axpy_from(-2.0f, delta);
  EXPECT_FLOAT_EQ(a[0], 8.0f);
  std::vector<float> wrong(3);
  EXPECT_THROW(pack.copy_from(wrong), std::invalid_argument);
}

TEST(ParamPack, PackToPackAxpyChecksSegmentation) {
  std::vector<float> a = {1, 2};
  std::vector<float> ga = {10, 10};
  ParamPack p({std::span<float>(a)});
  ParamPack g({std::span<float>(ga)});
  p.axpy_from(0.5f, g);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  std::vector<float> b = {1.0f};
  ParamPack wrong({std::span<float>(b)});
  EXPECT_THROW(p.axpy_from(1.0f, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::nn
