#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "codec/codec.h"
#include "net/wire.h"

namespace cmfl::codec {

namespace {

constexpr std::size_t kHeaderBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t);

/// Chunks whose |x| sums run side by side in encode.  Each chunk keeps its
/// own double accumulator fed in element order, so a scale has the bits of
/// the one-chunk-at-a-time loop; the lanes only overlap the add latencies.
constexpr std::size_t kSumLanes = 8;

void put_scale(std::byte* dst, std::size_t c, double sum, std::size_t count) {
  const float scale = static_cast<float>(sum / static_cast<double>(count));
  std::memcpy(dst + c * sizeof(float), &scale, sizeof(scale));
}

/// Writes the mean |x| of each chunk of `x` as float32 to dst[4c].
void write_chunk_scales(std::span<const float> x, std::size_t chunk,
                        std::byte* dst) {
  const std::size_t dim = x.size();
  const std::size_t full = dim / chunk;
  std::size_t c = 0;
  for (; c + kSumLanes <= full; c += kSumLanes) {
    const float* base = x.data() + c * chunk;
    double sum[kSumLanes] = {};
    for (std::size_t i = 0; i < chunk; ++i) {
      for (std::size_t l = 0; l < kSumLanes; ++l) {
        sum[l] += std::fabs(static_cast<double>(base[l * chunk + i]));
      }
    }
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      put_scale(dst, c + l, sum[l], chunk);
    }
  }
  for (std::size_t lo = c * chunk; lo < dim; lo += chunk, ++c) {
    const std::size_t hi = std::min(dim, lo + chunk);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      sum += std::fabs(static_cast<double>(x[i]));
    }
    put_scale(dst, c, sum, hi - lo);
  }
}

/// kNibbleSigns[n][j] is bit j of n moved to an IEEE float's sign bit.
constexpr auto kNibbleSigns = [] {
  std::array<std::array<std::uint32_t, 4>, 16> t{};
  for (std::uint32_t n = 0; n < 16; ++n) {
    for (std::uint32_t j = 0; j < 4; ++j) t[n][j] = ((n >> j) & 1u) << 31;
  }
  return t;
}();

/// dst[b] = scale with bit b of `word` XORed into its sign, for 64 lanes,
/// four lanes (one nibble-table row) per step — a 128-bit load and XOR on
/// any SIMD target, plain integer code elsewhere.
void expand_sign_word(std::uint64_t word, std::uint32_t scale_bits,
                      float* dst) {
  for (std::size_t k = 0; k < 16; ++k) {
    const auto& signs = kNibbleSigns[(word >> (4 * k)) & 15];
    std::uint32_t lanes[4];
    for (std::size_t j = 0; j < 4; ++j) lanes[j] = scale_bits ^ signs[j];
    std::memcpy(dst + 4 * k, lanes, sizeof(lanes));
  }
}

}  // namespace

SignCodec::SignCodec(std::size_t chunk) : chunk_(chunk) {
  if (chunk == 0) {
    throw std::invalid_argument("SignCodec: chunk must be >= 1");
  }
}

std::string SignCodec::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sign:%zu", chunk_);
  return buf;
}

EncodedUpdate SignCodec::encode(std::span<const float> update) {
  const std::uint64_t dim = update.size();
  const auto chunk = static_cast<std::uint32_t>(chunk_);
  const std::size_t num_chunks = (update.size() + chunk_ - 1) / chunk_;
  pack_.assign(update);  // AVX2-accelerated sign extraction
  const std::span<const std::uint64_t> words = pack_.negative_words();
  // The layout WireWriter would append field by field, written in place.
  std::vector<std::byte> payload(kHeaderBytes + num_chunks * sizeof(float) +
                                 words.size_bytes());
  std::byte* p = payload.data();
  std::memcpy(p, &dim, sizeof(dim));
  std::memcpy(p + sizeof(dim), &chunk, sizeof(chunk));
  p += kHeaderBytes;
  write_chunk_scales(update, chunk_, p);
  p += num_chunks * sizeof(float);
  if (!words.empty()) std::memcpy(p, words.data(), words.size_bytes());
  return {kCodecSign, std::move(payload)};
}

std::vector<float> SignCodec::decode(std::span<const std::byte> payload) {
  std::vector<float> out;
  decode_into(payload, out);
  return out;
}

void SignCodec::decode_into(std::span<const std::byte> payload,
                            std::vector<float>& out) {
  net::WireReader r(payload);
  const std::uint64_t dim = r.u64();
  const std::uint32_t chunk = r.u32();
  if (dim > kMaxDecodeDim) {
    throw std::runtime_error("SignCodec: dimension header exceeds limit");
  }
  if (chunk == 0) throw std::runtime_error("SignCodec: zero chunk size");
  const std::uint64_t num_chunks = (dim + chunk - 1) / chunk;
  const std::uint64_t num_words = (dim + 63) / 64;
  const std::uint64_t body =
      num_chunks * sizeof(float) + num_words * sizeof(std::uint64_t);
  if (body > r.remaining()) {
    throw std::runtime_error("SignCodec: payload shorter than header claims");
  }
  if (body < r.remaining()) {
    throw std::runtime_error("SignCodec: trailing bytes");
  }
  const std::byte* scales = payload.data() + kHeaderBytes;
  const std::byte* words = scales + num_chunks * sizeof(float);
  const auto word_at = [words](std::uint64_t wi) {
    std::uint64_t w = 0;
    std::memcpy(&w, words + wi * sizeof(w), sizeof(w));
    return w;
  };
  const auto scale_bits_at = [scales](std::uint64_t c) {
    std::uint32_t s = 0;
    std::memcpy(&s, scales + c * sizeof(s), sizeof(s));
    return s;
  };
  // Only the last word can be partial; its spare bits are checked before
  // anything is written, so `out` is untouched by a rejected payload.
  const std::uint64_t tail_lanes = dim % 64;
  if (tail_lanes != 0 && (word_at(num_words - 1) >> tail_lanes) != 0) {
    throw std::runtime_error("SignCodec: sign bits set beyond dimension");
  }
  out.resize(static_cast<std::size_t>(dim));
  float* dst = out.data();
  // Coordinate i decodes to scale[i / chunk] with sign bit i XORed into the
  // scale's IEEE sign bit: the same bits as -scale (negation only flips the
  // sign bit, NaNs included), no branch.
  if (chunk % 64 == 0) {
    // Every sign word lies inside one chunk: expand it whole.
    const std::uint64_t full_words = dim / 64;
    const std::uint64_t words_per_chunk = chunk / 64;
    for (std::uint64_t wi = 0; wi < full_words; ++wi) {
      expand_sign_word(word_at(wi), scale_bits_at(wi / words_per_chunk),
                       dst + wi * 64);
    }
    if (tail_lanes != 0) {
      float lanes[64];
      expand_sign_word(word_at(full_words),
                       scale_bits_at(full_words / words_per_chunk), lanes);
      std::memcpy(dst + full_words * 64, lanes, tail_lanes * sizeof(float));
    }
    return;
  }
  // Each sign word is walked in runs of lanes that share one chunk, so the
  // scale is loaded once per run instead of indexed by i / chunk per lane.
  std::size_t c = 0;  // chunk of the next coordinate
  std::uint64_t chunk_end = std::min<std::uint64_t>(chunk, dim);
  for (std::uint64_t wi = 0; wi < num_words; ++wi) {
    const std::uint64_t word = word_at(wi);
    const std::uint64_t base = wi * 64;
    const std::uint64_t lanes = std::min<std::uint64_t>(64, dim - base);
    std::uint64_t b = 0;
    while (b < lanes) {
      if (base + b == chunk_end) {
        ++c;
        chunk_end = std::min<std::uint64_t>(chunk_end + chunk, dim);
      }
      const std::uint64_t run_end = std::min(lanes, chunk_end - base);
      const std::uint32_t scale_bits = scale_bits_at(c);
      for (; b < run_end; ++b) {
        const auto sign = static_cast<std::uint32_t>((word >> b) & 1) << 31;
        dst[base + b] = std::bit_cast<float>(scale_bits ^ sign);
      }
    }
  }
}

}  // namespace cmfl::codec
