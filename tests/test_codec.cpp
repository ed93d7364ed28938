// The codec subsystem's behavioral contract: wire-size formulas,
// reconstruction semantics, error-feedback accumulation, refresh cadence,
// per-seed determinism, and bit-identical continuation from checkpointed
// mutable state.  The exhaustive malformed-payload matrices live in
// test_codec_malformed.cpp.
#include "codec/codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "net/wire.h"
#include "util/rng.h"

namespace cmfl::codec {
namespace {

std::vector<float> random_update(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform_f(-0.5f, 0.5f);
  return v;
}

// ------------------------------------------------------------------- sign

TEST(SignCodec, WireSizeIsOneBitPerCoordinatePlusHeader) {
  SignCodec c(256);
  const auto enc = c.encode(random_update(4096, 1));
  // [u64 dim][u32 chunk][f32 x 16 scales][u64 x 64 sign words].
  EXPECT_EQ(enc.wire_bytes(), 8u + 4 + 16 * 4 + 64 * 8);
  // The acceptance shape: ~dim/8 bytes of signs, header amortized away.
  EXPECT_LT(enc.wire_bytes(), 4096u / 8 + 100);
}

TEST(SignCodec, DecodesToPerChunkScaleWithOriginalSigns) {
  SignCodec c(2);
  const std::vector<float> u = {1.0f, -2.0f, 3.0f, -4.0f};
  const auto dec = c.decode(c.encode(u).payload);
  ASSERT_EQ(dec.size(), 4u);
  EXPECT_FLOAT_EQ(dec[0], 1.5f);   // chunk 0 mean |v| = 1.5
  EXPECT_FLOAT_EQ(dec[1], -1.5f);
  EXPECT_FLOAT_EQ(dec[2], 3.5f);   // chunk 1 mean |v| = 3.5
  EXPECT_FLOAT_EQ(dec[3], -3.5f);
}

TEST(SignCodec, ZeroDecodesPositive) {
  SignCodec c(4);
  const std::vector<float> u = {0.0f, -1.0f, 2.0f, 1.0f};
  const auto dec = c.decode(c.encode(u).payload);
  EXPECT_GT(dec[0], 0.0f);
}

TEST(SignCodec, RejectsZeroChunk) {
  EXPECT_THROW(SignCodec(0), std::invalid_argument);
}

/// The per-element decode rule, read straight off the payload layout
/// [u64 dim][u32 chunk][f32 scale x ceil(dim/chunk)][u64 x ceil(dim/64)]:
/// coordinate i is bit ? -scale[i / chunk] : scale[i / chunk].
std::vector<float> reference_sign_decode(std::span<const std::byte> payload) {
  std::uint64_t dim = 0;
  std::uint32_t chunk = 0;
  std::memcpy(&dim, payload.data(), sizeof(dim));
  std::memcpy(&chunk, payload.data() + 8, sizeof(chunk));
  const std::size_t num_chunks = (dim + chunk - 1) / chunk;
  const std::byte* scales = payload.data() + 12;
  const std::byte* words = scales + num_chunks * sizeof(float);
  std::vector<float> out(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    float scale = 0.0f;
    std::memcpy(&scale, scales + (i / chunk) * sizeof(float), sizeof(scale));
    std::uint64_t word = 0;
    std::memcpy(&word, words + (i / 64) * sizeof(word), sizeof(word));
    out[i] = (word >> (i % 64)) & 1 ? -scale : scale;
  }
  return out;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "coordinate " << i;
  }
}

/// The one-chunk-at-a-time encode the payload format was defined by: per
/// chunk, a serial double sum of |x| in element order, then sum / count as
/// float32; the sign words are SignPack's, appended after the scales.
std::vector<std::byte> reference_sign_encode(std::span<const float> u,
                                             std::size_t chunk) {
  net::WireWriter w;
  w.u64(u.size());
  w.u32(static_cast<std::uint32_t>(chunk));
  for (std::size_t base = 0; base < u.size(); base += chunk) {
    const std::size_t end = std::min(u.size(), base + chunk);
    double sum = 0.0;
    for (std::size_t i = base; i < end; ++i) {
      sum += std::fabs(static_cast<double>(u[i]));
    }
    w.f32(static_cast<float>(sum / static_cast<double>(end - base)));
  }
  const tensor::SignPack pack(u);
  for (const std::uint64_t word : pack.negative_words()) w.u64(word);
  return w.take();
}

const std::size_t kSignDims[] = {1, 63, 64, 65, 255, 256, 257, 158730};
const std::size_t kSignChunks[] = {1, 3, 64, 100, 256, 1000};

/// A random update with ±0, NaN of both signs, ±inf and denormals spread
/// through it (one NaN encoding, so a NaN scale has one right answer).
std::vector<float> update_with_specials(std::size_t dim, std::uint64_t seed) {
  std::vector<float> u = random_update(dim, seed);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f,     -0.0f,     nan,     -nan,
                            INFINITY, -INFINITY, 1e-40f,  -1e-45f,
                            std::numeric_limits<float>::denorm_min()};
  util::Rng rng(seed ^ 0x5eed);
  for (std::size_t i = 0; i < dim; i += 1 + rng.uniform_index(97)) {
    u[i] = specials[rng.uniform_index(std::size(specials))];
  }
  return u;
}

/// Runs `body` once per kernel tier (the sign packing has an AVX2 backend);
/// the codec's bits must not depend on which one is active.
template <typename Body>
void for_each_tier(Body body) {
  for (const auto t : {tensor::kernels::Tier::kExact,
                       tensor::kernels::Tier::kFast}) {
    tensor::kernels::set_tier(t);
    SCOPED_TRACE(t == tensor::kernels::Tier::kExact ? "exact tier"
                                                    : "fast tier");
    body();
  }
  tensor::kernels::set_tier(tensor::kernels::Tier::kAuto);
}

TEST(SignCodec, EncodeMatchesTheChunkAtATimeReferenceByteForByte) {
  for_each_tier([] {
    for (const std::size_t chunk : kSignChunks) {
      for (const std::size_t dim : kSignDims) {
        SCOPED_TRACE(::testing::Message() << "chunk " << chunk << " dim "
                                          << dim);
        SignCodec c(chunk);
        const std::vector<float> plain = random_update(dim, 31 * chunk + dim);
        EXPECT_EQ(c.encode(plain).payload, reference_sign_encode(plain, chunk));
        // Chunks holding only finite values keep finite scales, the others
        // take NaN or inf: both must come out with the reference's bits.
        const std::vector<float> special =
            update_with_specials(dim, chunk + dim);
        EXPECT_EQ(c.encode(special).payload,
                  reference_sign_encode(special, chunk));
      }
    }
  });
}

// Sums of random floats in double are usually exact, so the test above
// would not see a chunk summed out of order.  Here every chunk holds
// 1, 2^-24 and six 2^-54 (then zeros), with a power-of-two count: in
// element order each 2^-54 is a quarter ulp and rounds away, and the mean
// is a float tie that rounds to even; any other order keeps them and
// rounds the scale up.
TEST(SignCodec, EncodeSumsEachChunkInElementOrder) {
  for (const std::size_t chunk : {8u, 64u, 256u}) {
    SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
    const std::size_t dim = 11 * chunk;  // a group of 8 chunks plus a tail
    std::vector<float> u(dim, 0.0f);
    for (std::size_t base = 0; base < dim; base += chunk) {
      u[base] = 1.0f;
      u[base + 1] = std::ldexp(1.0f, -24);
      for (std::size_t i = 2; i < 8; ++i) u[base + i] = std::ldexp(1.0f, -54);
    }
    const std::vector<std::byte> want = reference_sign_encode(u, chunk);
    float first_scale = 0.0f;
    std::memcpy(&first_scale, want.data() + 12, sizeof(first_scale));
    ASSERT_EQ(first_scale, 1.0f / static_cast<float>(chunk));
    EXPECT_EQ(SignCodec(chunk).encode(u).payload, want);
  }
}

TEST(SignCodec, DecodeMatchesThePerElementReferenceBitForBit) {
  for_each_tier([] {
    util::Rng rng(77);
    for (const std::size_t chunk : {1u, 3u, 63u, 64u, 65u, 100u, 128u, 256u,
                                    1000u}) {
      for (const std::size_t dim : kSignDims) {
        SCOPED_TRACE(::testing::Message() << "chunk " << chunk << " dim "
                                          << dim);
        // An encoded update (zeros included: they decode positive).
        std::vector<float> u = random_update(dim, 1000 * chunk + dim);
        for (std::size_t i = 0; i < dim; i += 7) u[i] = 0.0f;
        SignCodec c(chunk);
        const EncodedUpdate enc = c.encode(u);
        expect_same_bits(c.decode(enc.payload),
                         reference_sign_decode(enc.payload));
        const EncodedUpdate special = c.encode(update_with_specials(dim, dim));
        expect_same_bits(c.decode(special.payload),
                         reference_sign_decode(special.payload));

        // A hand-built payload with scales no encoder emits — negative,
        // signed zero, infinite, NaN — and random sign bits below dim.
        const std::size_t num_chunks = (dim + chunk - 1) / chunk;
        const float specials[] = {-0.0f, -1.5f, INFINITY, -INFINITY, NAN,
                                  std::bit_cast<float>(0x7fc01234u)};
        net::WireWriter w;
        w.u64(dim);
        w.u32(static_cast<std::uint32_t>(chunk));
        for (std::size_t k = 0; k < num_chunks; ++k) {
          w.f32(k % 3 == 0 ? specials[(k / 3) % 6] : rng.uniform_f(0.f, 1.f));
        }
        for (std::size_t base = 0; base < dim; base += 64) {
          const std::size_t lanes = std::min<std::size_t>(64, dim - base);
          std::uint64_t word = rng.next_u64();
          if (lanes < 64) word &= (std::uint64_t{1} << lanes) - 1;
          w.u64(word);
        }
        const std::vector<std::byte> payload = w.take();
        expect_same_bits(c.decode(payload), reference_sign_decode(payload));
      }
    }
  });
}

TEST(SignCodec, DecodeIntoFillsTheCallersBufferWithDecodesBits) {
  for (const std::size_t chunk : {3u, 256u}) {
    SignCodec c(chunk);
    const EncodedUpdate enc = c.encode(random_update(1000, chunk));
    // A longer, shorter or empty buffer ends up exactly decode()'s vector.
    for (const std::size_t prior : {0u, 10u, 1000u, 5000u}) {
      std::vector<float> out(prior, 42.0f);
      c.decode_into(enc.payload, out);
      expect_same_bits(out, c.decode(enc.payload));
    }
    // A rejected payload leaves the buffer as it was.
    std::vector<std::byte> bad = enc.payload;
    bad.back() |= std::byte{0x80};  // bit 63 of the last word: beyond 1000
    std::vector<float> out(7, 42.0f);
    EXPECT_THROW(c.decode_into(bad, out), std::runtime_error);
    EXPECT_EQ(out, std::vector<float>(7, 42.0f));
  }
}

// ------------------------------------------------------------------ quant

TEST(QuantCodec, SupportedBitWidthsRoundTripWithinOneStep) {
  const auto u = random_update(1000, 2);
  for (const int bits : {2, 4, 8}) {
    QuantCodec c(bits, 7);
    const auto enc = c.encode(u);
    // [u64 dim][u8 bits][f32 lo][f32 hi][packed levels].
    const std::size_t packed = (1000u * static_cast<std::size_t>(bits) + 7) / 8;
    EXPECT_EQ(enc.wire_bytes(), 8u + 1 + 4 + 4 + packed) << "bits=" << bits;
    const auto dec = c.decode(enc.payload);
    const float step = 1.0f / static_cast<float>((1 << bits) - 1);
    for (std::size_t i = 0; i < u.size(); ++i) {
      ASSERT_NEAR(dec[i], u[i], step * 1.5f) << "bits=" << bits;
    }
  }
}

TEST(QuantCodec, RejectsUnsupportedBitWidths) {
  for (const int bits : {0, 1, 3, 5, 6, 7, 16}) {
    EXPECT_THROW(QuantCodec(bits, 1), std::invalid_argument) << bits;
  }
}

TEST(QuantCodec, RestoredStateContinuesTheExactRngStream) {
  const auto u1 = random_update(64, 3);
  const auto u2 = random_update(64, 4);
  QuantCodec c1(4, 11);
  c1.encode(u1);  // advance the rounding stream
  const auto snapshot = c1.mutable_state();
  const auto a = c1.encode(u2);
  QuantCodec c2(4, 999);  // different seed: the restored state must win
  c2.restore_mutable_state(snapshot);
  const auto b = c2.encode(u2);
  EXPECT_EQ(a.payload, b.payload);
}

// ------------------------------------------------------------------- topk

TEST(TopKCodec, AbsoluteKKeepsExactlyKCoordinates) {
  TopKCodec c(5.0);
  const auto u = random_update(100, 5);
  const auto dec = c.decode(c.encode(u).payload);
  std::size_t nonzero = 0;
  for (const float v : dec) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, 5u);
}

TEST(TopKCodec, FractionFormScalesWithDimension) {
  TopKCodec c(0.1);
  const auto dec = c.decode(c.encode(random_update(50, 6)).payload);
  std::size_t nonzero = 0;
  for (const float v : dec) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, 5u);
}

TEST(TopKCodec, ErrorFeedbackDelaysUnsentMass) {
  TopKCodec c(1.0);
  const std::vector<float> u = {1.0f, 0.5f, 0.0f, 0.0f};
  const auto first = c.decode(c.encode(u).payload);
  EXPECT_FLOAT_EQ(first[0], 1.0f);  // largest magnitude goes out first
  EXPECT_FLOAT_EQ(first[1], 0.0f);
  // A zero update now carries the residual: the unsent 0.5 reappears.
  const std::vector<float> zeros(4, 0.0f);
  const auto second = c.decode(c.encode(zeros).payload);
  EXPECT_FLOAT_EQ(second[0], 0.0f);  // already delivered, residual cleared
  EXPECT_FLOAT_EQ(second[1], 0.5f);
}

TEST(TopKCodec, NothingIsPermanentlyDropped) {
  // Sum of everything decoded over enough rounds of zero updates equals the
  // original update exactly: error feedback only delays, never drops.
  TopKCodec c(2.0);
  const std::vector<float> u = {0.4f, -0.3f, 0.2f, -0.1f, 0.05f, 0.01f};
  std::vector<float> total(u.size(), 0.0f);
  auto add = [&](const std::vector<float>& d) {
    for (std::size_t i = 0; i < d.size(); ++i) total[i] += d[i];
  };
  add(c.decode(c.encode(u).payload));
  const std::vector<float> zeros(u.size(), 0.0f);
  for (int round = 0; round < 3; ++round) {
    add(c.decode(c.encode(zeros).payload));
  }
  for (std::size_t i = 0; i < u.size(); ++i) EXPECT_FLOAT_EQ(total[i], u[i]);
}

TEST(TopKCodec, DimensionChangeMidStreamThrows) {
  TopKCodec c(2.0);
  c.encode(random_update(16, 7));
  EXPECT_THROW(c.encode(random_update(17, 7)), std::invalid_argument);
}

TEST(TopKCodec, RejectsBadParams) {
  EXPECT_THROW(TopKCodec(0.0), std::invalid_argument);
  EXPECT_THROW(TopKCodec(-1.0), std::invalid_argument);
  EXPECT_THROW(TopKCodec(2.5), std::invalid_argument);  // non-integer k
}

TEST(TopKCodec, RestoredResidualContinuesBitIdentically) {
  const auto u1 = random_update(64, 8);
  const auto u2 = random_update(64, 9);
  TopKCodec c1(0.1);
  c1.encode(u1);  // leaves a nonzero residual behind
  const auto snapshot = c1.mutable_state();
  const auto a = c1.encode(u2);
  TopKCodec c2(0.1);
  c2.restore_mutable_state(snapshot);
  const auto b = c2.encode(u2);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(TopKCodec, RejectsMalformedStateBlob) {
  TopKCodec c(2.0);
  c.encode(random_update(8, 10));
  auto state = c.mutable_state();
  state.push_back(0);  // trailing words must be rejected
  EXPECT_THROW(c.restore_mutable_state(state), std::invalid_argument);
}

// --------------------------------------------------------------- codebook

TEST(CodebookCodec, ShipsTheCodebookOnlyOnRefreshRounds) {
  CodebookCodec c(4, 3);
  const auto u = random_update(128, 11);
  // Layout: [u64 dim][u8 index_bits][u8 has_codebook]...; the flag byte
  // sits at offset 9.
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 7; ++i) {
    const auto enc = c.encode(u);
    const bool has_codebook = enc.payload[9] == std::byte{1};
    EXPECT_EQ(has_codebook, i % 3 == 0) << "encode #" << i;
    sizes.push_back(enc.wire_bytes());
  }
  // Refresh payloads carry 1 + 4k extra bytes over the pure index stream.
  EXPECT_EQ(sizes[0], sizes[1] + 1 + 4 * 4);
}

TEST(CodebookCodec, DecoderCachesTheCodebookAcrossPayloads) {
  CodebookCodec enc(4, 4);
  const auto u = random_update(64, 12);
  const auto refresh = enc.encode(u);
  const auto index_only = enc.encode(u);

  CodebookCodec dec(4, 4);
  const auto d1 = dec.decode(refresh.payload);
  const auto d2 = dec.decode(index_only.payload);  // uses the cached centers
  EXPECT_EQ(d1, d2);  // same input, same codebook, same reconstruction

  CodebookCodec cold(4, 4);
  EXPECT_THROW(cold.decode(index_only.payload), std::runtime_error);
}

TEST(CodebookCodec, ReconstructionUsesNearestCenter) {
  CodebookCodec c(2, 1);
  const std::vector<float> u = {0.0f, 0.0f, 1.0f, 1.0f, 0.1f, 0.9f};
  const auto dec = c.decode(c.encode(u).payload);
  // Two centers near 0 and 1; every coordinate snaps to the closer one.
  EXPECT_NEAR(dec[0], dec[4], 0.11);
  EXPECT_NEAR(dec[2], dec[5], 0.11);
  EXPECT_GT(dec[2] - dec[0], 0.5f);
}

TEST(CodebookCodec, RestoredStateKeepsTheRefreshPhase) {
  const auto u1 = random_update(64, 13);
  const auto u2 = random_update(64, 14);
  CodebookCodec c1(8, 4);
  c1.encode(u1);
  c1.encode(u1);  // encodes_ = 2, codebook cached
  const auto snapshot = c1.mutable_state();
  const auto a = c1.encode(u2);
  CodebookCodec c2(8, 4);
  c2.restore_mutable_state(snapshot);
  const auto b = c2.encode(u2);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.payload[9], std::byte{0});  // mid-cycle: no refresh yet
}

TEST(CodebookCodec, RejectsBadParamsAndStateBlobs) {
  EXPECT_THROW(CodebookCodec(1, 4), std::invalid_argument);
  EXPECT_THROW(CodebookCodec(300, 4), std::invalid_argument);
  EXPECT_THROW(CodebookCodec(4, 0), std::invalid_argument);
  CodebookCodec c(4, 4);
  EXPECT_THROW(c.restore_mutable_state({}), std::invalid_argument);
  CodebookCodec other(8, 4);
  other.encode(random_update(32, 15));
  const auto state = other.mutable_state();
  EXPECT_THROW(c.restore_mutable_state(state), std::invalid_argument);  // k=8
}

// ------------------------------------------------- subsample / structured

TEST(SubsampleCodec, RestoredStateContinuesTheExactRngStream) {
  const auto u = random_update(64, 16);
  SubsampleCodec c1(0.5, 21);
  c1.encode(u);
  const auto snapshot = c1.mutable_state();
  const auto a = c1.encode(u);
  SubsampleCodec c2(0.5, 777);
  c2.restore_mutable_state(snapshot);
  const auto b = c2.encode(u);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(StructuredMaskCodec, RestoredStateContinuesTheExactRngStream) {
  const auto u = random_update(64, 17);
  StructuredMaskCodec c1(0.25, 22);
  c1.encode(u);
  const auto snapshot = c1.mutable_state();
  const auto a = c1.encode(u);
  StructuredMaskCodec c2(0.25, 888);
  c2.restore_mutable_state(snapshot);
  const auto b = c2.encode(u);
  EXPECT_EQ(a.payload, b.payload);
}

// ---------------------------------------------------------------- factory

TEST(MakeUpdateCodec, ParameterizedSpecs) {
  EXPECT_EQ(make_update_codec("sign", 1)->name(), "sign:256");
  EXPECT_EQ(make_update_codec("sign:128", 1)->name(), "sign:128");
  EXPECT_EQ(make_update_codec("quant:4", 1)->name(), "quant:4");
  EXPECT_EQ(make_update_codec("topk:0.05", 1)->name(), "topk:0.0500");
  EXPECT_EQ(make_update_codec("topk:32", 1)->name(), "topk:32");
  EXPECT_EQ(make_update_codec("codebook:16", 1)->name(), "codebook:16,16");
  EXPECT_EQ(make_update_codec("codebook:16,8", 1)->name(), "codebook:16,8");
  EXPECT_THROW(make_update_codec("quant:3", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("sign:0", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("topk:junk", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("codebook:16,", 1), std::invalid_argument);
}

TEST(MakeUpdateCodec, WireIdsAndVersionsAreStable) {
  const struct {
    const char* spec;
    std::uint8_t id;
    bool stateful_decode;
  } cases[] = {
      {"dense", kCodecDense, false},     {"sign", kCodecSign, false},
      {"quant:8", kCodecQuant, false},   {"topk:0.1", kCodecTopK, false},
      {"codebook:8", kCodecCodebook, true},
      {"subsample:0.5", kCodecSubsample, false},
      {"structured:0.5", kCodecStructured, false},
  };
  const auto u = random_update(32, 18);
  for (const auto& t : cases) {
    auto c = make_update_codec(t.spec, 5);
    EXPECT_EQ(c->id(), t.id) << t.spec;
    EXPECT_EQ(c->version(), 1) << t.spec;
    EXPECT_EQ(c->stateful_decode(), t.stateful_decode) << t.spec;
    const auto enc = c->encode(u);
    EXPECT_EQ(enc.codec_id, t.id) << t.spec;
    EXPECT_EQ(enc.wire_bytes(), enc.payload.size()) << t.spec;
  }
}

TEST(MakeUpdateCodec, SameSeedSameSpecIsDeterministic) {
  const auto u1 = random_update(128, 19);
  const auto u2 = random_update(128, 20);
  for (const char* spec : {"dense", "sign", "quant:4", "topk:0.1",
                           "codebook:8,2", "subsample:0.5",
                           "structured:0.5"}) {
    auto a = make_update_codec(spec, 42);
    auto b = make_update_codec(spec, 42);
    EXPECT_EQ(a->encode(u1).payload, b->encode(u1).payload) << spec;
    EXPECT_EQ(a->encode(u2).payload, b->encode(u2).payload) << spec;
  }
}

TEST(MakeUpdateCodec, StatelessCodecsRejectNonEmptyStateBlobs) {
  const std::vector<std::uint64_t> blob = {1, 2, 3};
  EXPECT_THROW(make_update_codec("dense", 1)->restore_mutable_state(blob),
               std::invalid_argument);
  EXPECT_THROW(make_update_codec("sign", 1)->restore_mutable_state(blob),
               std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::codec
