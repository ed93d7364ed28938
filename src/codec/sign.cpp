#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "codec/codec.h"
#include "net/wire.h"

namespace cmfl::codec {

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
  const std::size_t dim = update.size();
  pack_.assign(update);  // AVX2-accelerated sign extraction
  net::WireWriter w;
  w.u64(dim);
  w.u32(static_cast<std::uint32_t>(chunk_));
  for (std::size_t base = 0; base < dim; base += chunk_) {
    const std::size_t end = std::min(dim, base + chunk_);
    double sum = 0.0;
    for (std::size_t i = base; i < end; ++i) {
      sum += std::fabs(static_cast<double>(update[i]));
    }
    w.f32(static_cast<float>(sum / static_cast<double>(end - base)));
  }
  for (const std::uint64_t word : pack_.negative_words()) w.u64(word);
  return {kCodecSign, w.take()};
}

std::vector<float> SignCodec::decode(std::span<const std::byte> payload) {
  net::WireReader r(payload);
  const std::uint64_t dim = r.u64();
  const std::uint32_t chunk = r.u32();
  if (dim > kMaxDecodeDim) {
    throw std::runtime_error("SignCodec: dimension header exceeds limit");
  }
  if (chunk == 0) throw std::runtime_error("SignCodec: zero chunk size");
  const std::uint64_t num_chunks = (dim + chunk - 1) / chunk;
  const std::uint64_t num_words = (dim + 63) / 64;
  if (num_chunks * sizeof(float) + num_words * sizeof(std::uint64_t) >
      r.remaining()) {
    throw std::runtime_error("SignCodec: payload shorter than header claims");
  }
  std::vector<float> scales(static_cast<std::size_t>(num_chunks));
  for (float& s : scales) s = r.f32();
  std::vector<float> out(static_cast<std::size_t>(dim));
  // Each sign word is walked in runs of lanes that share one chunk, so the
  // scale is loaded once per run instead of indexed by i / chunk per lane.
  // A set bit is XORed into the scale's IEEE sign bit: the same bits as
  // -scale (negation only flips the sign bit, NaNs included), no branch.
  std::size_t c = 0;  // chunk of the next coordinate
  std::uint64_t chunk_end = std::min<std::uint64_t>(chunk, dim);
  for (std::uint64_t wi = 0; wi < num_words; ++wi) {
    const std::uint64_t word = r.u64();
    const std::uint64_t base = wi * 64;
    const std::uint64_t lanes = std::min<std::uint64_t>(64, dim - base);
    if (lanes < 64 && (word >> lanes) != 0) {
      throw std::runtime_error("SignCodec: sign bits set beyond dimension");
    }
    float* dst = out.data() + base;
    std::uint64_t b = 0;
    while (b < lanes) {
      if (base + b == chunk_end) {
        ++c;
        chunk_end = std::min<std::uint64_t>(chunk_end + chunk, dim);
      }
      const std::uint64_t run_end = std::min(lanes, chunk_end - base);
      const auto scale_bits = std::bit_cast<std::uint32_t>(scales[c]);
      for (; b < run_end; ++b) {
        const auto sign = static_cast<std::uint32_t>((word >> b) & 1) << 31;
        dst[b] = std::bit_cast<float>(scale_bits ^ sign);
      }
    }
  }
  if (!r.done()) throw std::runtime_error("SignCodec: trailing bytes");
  return out;
}

}  // namespace cmfl::codec
