// Exhaustive malformed-payload matrix over every codec decode path: every
// single-bit flip and every truncation of a valid payload must either throw
// loudly or decode to a well-formed vector of the size its (possibly
// corrupted) header claims — never crash, never over-allocate, never
// silently mis-size.  At the wire layer, every single-bit flip of a sealed
// CodecUpload frame is caught by the frame CRC before any decode runs.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "codec/codec.h"
#include "net/message.h"
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

std::uint64_t claimed_dim(std::span<const std::byte> payload) {
  std::uint64_t dim = 0;
  std::memcpy(&dim, payload.data(), sizeof(dim));
  return dim;
}

/// The per-flip contract: decode either throws std::runtime_error or
/// returns a vector sized exactly as the (flipped) header claims.  The
/// kMaxDecodeDim guard makes the "returns" branch safe — no corrupted
/// header can drive a runaway allocation first.
void expect_loud_or_wellformed(UpdateCodec& codec,
                               std::span<const std::byte> payload,
                               const char* what) {
  try {
    const std::vector<float> out = codec.decode(payload);
    EXPECT_EQ(out.size(), claimed_dim(payload)) << what;
  } catch (const std::runtime_error&) {
    // Loud rejection is the other acceptable outcome.
  }
}

/// Decoders are handed out fresh per attempt so a stateful decoder (the
/// codebook cache) cannot be poisoned by one corrupted payload and change
/// the verdict on the next.
using DecoderFactory = std::unique_ptr<UpdateCodec> (*)();

void run_bit_flip_matrix(std::vector<std::byte> payload,
                         DecoderFactory make_decoder) {
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[byte] ^= std::byte{1} << bit;
      const auto what =
          "byte " + std::to_string(byte) + " bit " + std::to_string(bit);
      expect_loud_or_wellformed(*make_decoder(), payload, what.c_str());
      payload[byte] ^= std::byte{1} << bit;  // restore
    }
  }
}

void run_truncation_matrix(const std::vector<std::byte>& payload,
                           DecoderFactory make_decoder) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::span<const std::byte> prefix(payload.data(), len);
    EXPECT_THROW(make_decoder()->decode(prefix), std::runtime_error)
        << "truncated to " << len << " of " << payload.size() << " bytes";
  }
}

void run_trailing_byte_check(std::vector<std::byte> payload,
                             DecoderFactory make_decoder) {
  payload.push_back(std::byte{0});
  EXPECT_THROW(make_decoder()->decode(payload), std::runtime_error);
}

struct CodecCase {
  const char* spec;
  DecoderFactory make_decoder;
};

// One factory per spec: gtest matrices want stateless lambdas.
std::unique_ptr<UpdateCodec> dense() { return make_update_codec("dense", 1); }
std::unique_ptr<UpdateCodec> sign8() { return make_update_codec("sign:8", 1); }
std::unique_ptr<UpdateCodec> sign64() {
  return make_update_codec("sign:64", 1);
}
std::unique_ptr<UpdateCodec> quant2() {
  return make_update_codec("quant:2", 1);
}
std::unique_ptr<UpdateCodec> quant8() {
  return make_update_codec("quant:8", 1);
}
std::unique_ptr<UpdateCodec> topk3() { return make_update_codec("topk:3", 1); }
std::unique_ptr<UpdateCodec> codebook() {
  return make_update_codec("codebook:4,2", 1);
}
std::unique_ptr<UpdateCodec> subsample() {
  return make_update_codec("subsample:0.5", 1);
}
std::unique_ptr<UpdateCodec> structured() {
  return make_update_codec("structured:0.5", 1);
}

const CodecCase kCases[] = {
    {"dense", dense},           {"sign:8", sign8},
    {"sign:64", sign64},
    {"quant:2", quant2},        {"quant:8", quant8},
    {"topk:3", topk3},          {"codebook:4,2", codebook},
    {"subsample:0.5", subsample}, {"structured:0.5", structured},
};

std::vector<std::byte> valid_payload(const char* spec) {
  auto enc = make_update_codec(spec, 1)->encode(random_update(33, 1));
  return std::move(enc.payload);
}

TEST(CodecMalformed, EveryBitFlipThrowsOrStaysWellFormed) {
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.spec);
    run_bit_flip_matrix(valid_payload(c.spec), c.make_decoder);
  }
}

TEST(CodecMalformed, EveryTruncationThrows) {
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.spec);
    run_truncation_matrix(valid_payload(c.spec), c.make_decoder);
  }
}

TEST(CodecMalformed, TrailingBytesThrow) {
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.spec);
    run_trailing_byte_check(valid_payload(c.spec), c.make_decoder);
  }
}

TEST(CodecMalformed, EmptyPayloadThrows) {
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.spec);
    EXPECT_THROW(c.make_decoder()->decode({}), std::runtime_error);
  }
}

// The codebook's index-only payloads decode against a cached codebook; the
// matrix re-primes a fresh decoder with the refresh payload before every
// corrupted attempt so the cache itself is always clean.
TEST(CodecMalformed, CodebookIndexStreamMatrix) {
  CodebookCodec enc(4, 2);
  const auto u = random_update(33, 2);
  const auto refresh = enc.encode(u);
  auto index_only = enc.encode(u).payload;
  ASSERT_EQ(index_only[9], std::byte{0});

  auto primed = [&] {
    CodebookCodec d(4, 2);
    d.decode(refresh.payload);
    return d;
  };
  for (std::size_t byte = 0; byte < index_only.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      index_only[byte] ^= std::byte{1} << bit;
      auto d = primed();
      expect_loud_or_wellformed(
          d, index_only,
          ("byte " + std::to_string(byte) + " bit " + std::to_string(bit))
              .c_str());
      index_only[byte] ^= std::byte{1} << bit;
    }
  }
  for (std::size_t len = 0; len < index_only.size(); ++len) {
    auto d = primed();
    EXPECT_THROW(
        d.decode(std::span<const std::byte>(index_only.data(), len)),
        std::runtime_error)
        << "truncated to " << len;
  }
}

// ------------------------------------------------- targeted structural rot

TEST(CodecMalformed, QuantBadBitsFieldThrows) {
  auto payload = valid_payload("quant:8");
  payload[8] = std::byte{3};  // bits field: 3 is not a supported width
  EXPECT_THROW(quant8()->decode(payload), std::runtime_error);
}

TEST(CodecMalformed, QuantNonzeroPaddingBitsThrow) {
  QuantCodec c(2, 1);
  auto enc = c.encode(random_update(3, 3));  // 3 levels + 1 padding slot
  enc.payload.back() |= std::byte{0xC0};     // set the padding slot
  EXPECT_THROW(c.decode(enc.payload), std::runtime_error);
}

TEST(CodecMalformed, SignPaddingBitsBeyondDimensionThrow) {
  SignCodec c(8);
  auto enc = c.encode(random_update(10, 4));  // one sign word, 54 spare bits
  enc.payload.back() |= std::byte{0x80};      // bit 63 is beyond dim 10
  EXPECT_THROW(c.decode(enc.payload), std::runtime_error);
}

// Chunks that are a multiple of 64 take the whole-word decode; it must
// reject exactly what the per-lane loop rejects.  130 coordinates: two full
// sign words and a 2-lane tail word, three 64-wide chunks.
TEST(CodecMalformed, SignWordPathRejectsHeaderLiesTruncationAndStrayBits) {
  const std::vector<std::byte> payload =
      SignCodec(64).encode(random_update(130, 5)).payload;
  ASSERT_EQ(payload.size(), 8u + 4 + 3 * 4 + 3 * 8);
  run_bit_flip_matrix(payload, sign64);
  run_truncation_matrix(payload, sign64);
  run_trailing_byte_check(payload, sign64);

  const auto with_header = [&](std::uint64_t dim, std::uint32_t chunk) {
    std::vector<std::byte> p = payload;
    std::memcpy(p.data(), &dim, sizeof(dim));
    std::memcpy(p.data() + 8, &chunk, sizeof(chunk));
    return p;
  };
  SignCodec c(64);
  EXPECT_THROW(c.decode(with_header(200, 64)), std::runtime_error);  // short
  EXPECT_THROW(c.decode(with_header(64, 64)), std::runtime_error);   // long
  EXPECT_THROW(c.decode(with_header(130, 128)), std::runtime_error); // long
  EXPECT_THROW(c.decode(with_header(130, 0)), std::runtime_error);
  EXPECT_THROW(c.decode(with_header(kMaxDecodeDim + 1, 64)),
               std::runtime_error);
  // A lie that keeps the byte count (dim 129 still needs 3 scales and 3
  // words) is caught by the tail check once a bit beyond lane 0 is set.
  std::vector<std::byte> stray = with_header(129, 64);
  stray.back() |= std::byte{0x80};
  EXPECT_THROW(c.decode(stray), std::runtime_error);
  std::vector<std::byte> tail = payload;
  tail[tail.size() - 8] |= std::byte{0x04};  // lane 2 of the 2-lane tail
  EXPECT_THROW(c.decode(tail), std::runtime_error);
}

TEST(CodecMalformed, TopKNonCanonicalVarintThrows) {
  net::WireWriter w;
  w.u64(16);
  w.u64(1);
  w.u8(0x80);  // "0 with a continuation bit": non-canonical encoding of 0
  w.u8(0x00);
  w.f32(1.0f);
  EXPECT_THROW(topk3()->decode(w.take()), std::runtime_error);
}

TEST(CodecMalformed, TopKNonIncreasingIndexThrows) {
  net::WireWriter w;
  w.u64(16);
  w.u64(2);
  w.u8(5);  // index 5
  w.u8(0);  // delta 0: duplicate index
  w.f32(1.0f);
  w.f32(2.0f);
  EXPECT_THROW(topk3()->decode(w.take()), std::runtime_error);
}

TEST(CodecMalformed, TopKIndexOutOfRangeThrows) {
  net::WireWriter w;
  w.u64(4);
  w.u64(1);
  w.u8(10);  // index 10 >= dim 4
  w.f32(1.0f);
  EXPECT_THROW(topk3()->decode(w.take()), std::runtime_error);
}

TEST(CodecMalformed, DimensionHeaderBombsAreRefusedBeforeAllocating) {
  // A corrupted dimension header far beyond any real model must be rejected
  // up front, not discovered via a multi-gigabyte allocation.
  net::WireWriter w;
  w.u64(std::uint64_t{1} << 40);
  w.u64(1);
  w.u8(0);
  w.f32(1.0f);
  const auto frame = w.take();
  EXPECT_THROW(topk3()->decode(frame), std::runtime_error);

  net::WireWriter s;
  s.u64(std::uint64_t{1} << 40);
  s.u64(0);
  const auto sparse = s.take();
  EXPECT_THROW(subsample()->decode(sparse), std::runtime_error);
  EXPECT_THROW(structured()->decode(sparse), std::runtime_error);
}

TEST(CodecMalformed, SparseCountExceedingPayloadThrows) {
  net::WireWriter w;
  w.u64(8);
  w.u64(100);  // claims 100 pairs, carries none
  const auto frame = w.take();
  EXPECT_THROW(subsample()->decode(frame), std::runtime_error);
}

TEST(CodecMalformed, CodebookWiderThanIndexWidthThrows) {
  net::WireWriter w;
  w.u64(0);
  w.u8(1);  // 1-bit indices
  w.u8(1);  // has_codebook
  w.u8(2);  // k - 1 = 2 -> k = 3 > 2^1
  for (int j = 0; j < 3; ++j) w.f32(0.0f);
  EXPECT_THROW(codebook()->decode(w.take()), std::runtime_error);
}

// --------------------------------------------------------- wire-CRC layer

TEST(CodecMalformed, SealedFrameCatchesEveryBitFlip) {
  // The transit guarantee: a CodecUpload frame that picks up any single-bit
  // error on the wire is rejected by try_open_frame's CRC check, so the
  // codec decode path only ever sees payloads an endpoint actually sealed.
  net::CodecUploadMsg msg;
  msg.seq = 7;
  msg.iteration = 3;
  msg.client_id = 2;
  msg.score = 0.5;
  msg.codec_id = kCodecTopK;
  msg.codec_version = 1;
  msg.payload = make_update_codec("topk:3", 1)->encode(random_update(16, 5))
                    .payload;
  std::vector<std::byte> frame = net::encode(msg);
  net::seal_frame(frame);
  ASSERT_TRUE(net::try_open_frame(frame).has_value());

  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[byte] ^= std::byte{1} << bit;
      EXPECT_FALSE(net::try_open_frame(frame).has_value())
          << "byte " << byte << " bit " << bit;
      frame[byte] ^= std::byte{1} << bit;
    }
  }
}

}  // namespace
}  // namespace cmfl::codec
