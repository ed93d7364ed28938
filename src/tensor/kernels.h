// High-throughput kernel layer.
//
// Two hot paths dominate everything the paper measures: GEMM inside local
// training (Dense/Conv2d/LSTM) and the CMFL relevance check e(u, ū) that
// every client evaluates against the same global update each iteration.
// This header provides
//
//   * cache-blocked, register-tiled GEMM kernels (gemm_nn / gemm_tn /
//     gemm_nt / gemv) plus the naive seed implementations (*_ref) kept for
//     equivalence tests and old-vs-new benchmarks,
//   * an optional ThreadPool-parallel row partition used by the Matrix-level
//     wrappers and Conv2d when the work exceeds a flop threshold,
//   * SignPack — a bit-packed three-way-sign representation that turns the
//     branchy O(d) sign-agreement scan into XOR/AND + popcount over 64-bit
//     words,
//   * fused scaled-accumulate kernels for server aggregation (axpy fusion
//     instead of accumulate-then-scale).
//
// Determinism contract: every kernel accumulates each output element in the
// same floating-point order as the naive seed loop (k strictly increasing),
// and the parallel path partitions output *rows* so each element is computed
// by exactly one thread with the serial per-row kernel.  Results are
// therefore bit-identical whether threading is on or off, and independent of
// thread count.  No atomics touch float accumulation.
//
// Tiers (DESIGN.md §13): the kernels above are the *bit-exact* tier — the
// reference float trajectory every golden digest pins.  A second *fast* tier
// (AVX2/FMA, kernels_simd.cpp) reaches much higher throughput by fusing
// multiply-adds and, for dot-product-shaped kernels, reducing in 8 partial
// lanes; it is numerically equivalent within a documented ULP bound but not
// bit-identical.  Both tiers keep the determinism contract: a forced tier
// plus a seed yields bit-identical results across runs and thread counts.
// Dispatch happens inside every public kernel according to set_tier():
// kAuto (the default) resolves to kFast when the binary was built with SIMD
// support and the CPU reports AVX2+FMA, and to kExact otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace cmfl::util {
class ThreadPool;
}

namespace cmfl::tensor {

namespace kernels {

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

/// Which implementation every public kernel dispatches to.
enum class Tier {
  kAuto,   ///< kFast when compiled in and the CPU supports it, else kExact.
  kExact,  ///< Bit-exact blocked kernels (the golden-trajectory reference).
  kFast,   ///< AVX2/FMA vector kernels (ULP-bounded, not bit-identical).
};

/// Forces a tier (tests/benches) or restores kAuto.  Forcing kFast on a
/// machine without AVX2+FMA silently resolves to kExact — the fast tier is
/// never emulated.  Not thread-safe against in-flight kernels; set it at
/// startup or between dispatches, like set_max_threads().
void set_tier(Tier t) noexcept;

/// The raw setting (kAuto until someone forces a tier).
Tier tier() noexcept;

/// The tier dispatches actually use: kExact or kFast, never kAuto.
Tier active_tier() noexcept;

/// True when the binary carries the AVX2/FMA backends (x86-64, GCC/Clang).
bool fast_tier_compiled() noexcept;

/// True when fast_tier_compiled() and the CPU reports AVX2 and FMA3.
bool fast_tier_available() noexcept;

/// Short provenance stamp for benchmark JSON: "avx2-fma" when the fast tier
/// is available on this host, "scalar" otherwise.
const char* simd_level() noexcept;

// ---------------------------------------------------------------------------
// Threading configuration
// ---------------------------------------------------------------------------

/// Maximum worker threads the kernel layer may use.  0 (the default) means
/// the CMFL_THREADS environment override when set, else one worker fewer
/// than the host's CPUs — the dispatching thread drains row chunks beside
/// the workers, so the default uses every CPU without oversubscribing; 1
/// disables the parallel path entirely.  The shared pool is
/// created lazily on first parallel dispatch and transparently rebuilt when
/// the effective setting changes, so benches and tests may re-pin thread
/// counts mid-process — just never concurrently with an in-flight kernel.
void set_max_threads(std::size_t n);
std::size_t max_threads() noexcept;

/// Worker count parsed from the CMFL_THREADS environment variable (cached at
/// first use), or 0 when unset/invalid.  Honored whenever max_threads() is 0
/// (the auto default), so CI and bench scripts can pin thread counts
/// reproducibly without code changes.
std::size_t env_max_threads() noexcept;

/// Shared lazily-created pool, or nullptr when the effective setting is 1
/// (or the default on a single-CPU host).
util::ThreadPool* pool();

/// Minimum multiply-accumulate count before a kernel shards rows across the
/// pool.  Below this, threading overhead exceeds the win (models in the
/// tier-1 tests stay comfortably under it and run serial).
inline constexpr std::size_t kParallelMacThreshold = std::size_t{1} << 22;

/// True when a (rows, total_macs) dispatch should shard across the pool:
/// rows >= 2, total_macs >= kParallelMacThreshold, and the pool has >= 2
/// workers.  The pool is only (lazily) created once the thresholds pass.
bool parallel_rows_active(std::size_t rows, std::size_t total_macs);

/// Pool-sharded row partition used by parallel_rows once active; fn may be a
/// cheap reference wrapper — it is invoked synchronously before returning.
void parallel_rows_dispatch(
    std::size_t rows, const std::function<void(std::size_t, std::size_t)>& fn);

/// Runs fn(row_begin, row_end) over a fixed contiguous partition of
/// [0, rows).  Serial (one direct call covering everything — no type
/// erasure, no heap) when the pool is unavailable, rows < 2, or
/// total_macs < kParallelMacThreshold.  The partition depends only on
/// (rows, pool size) — never on load.  The serial fast path is what keeps
/// the training hot path allocation-free: wrapping a capturing lambda in
/// std::function would heap-allocate on every call, and the parallel path
/// avoids the same by type-erasing a std::reference_wrapper (which fits the
/// small-buffer optimization).
template <typename Fn>
void parallel_rows(std::size_t rows, std::size_t total_macs, Fn&& fn) {
  if (!parallel_rows_active(rows, total_macs)) {
    fn(0, rows);
    return;
  }
  parallel_rows_dispatch(
      rows, std::function<void(std::size_t, std::size_t)>(std::ref(fn)));
}

// ---------------------------------------------------------------------------
// GEMM kernels (row-major, fully packed: lda == k etc.)
//
// Each kernel overwrites the output rows [i0, i1) and only reads/writes
// those rows, so callers may invoke disjoint row ranges concurrently.
// ---------------------------------------------------------------------------

/// c[m×n] = a[m×k] · b[k×n], rows [i0, i1).
void gemm_nn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, std::size_t i0, std::size_t i1);

/// c[m×n] += a[m×k] · b[k×n], rows [i0, i1) — gemm_nn without the zero-fill
/// prologue, so each output element accumulates k-increasing on top of the
/// value already in c.  Used by the im2col Conv2d forward, where c is
/// preloaded with the bias: the per-element op sequence (bias, then taps in
/// k order) reproduces the naive conv loop bit-for-bit.
void gemm_nn_acc(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, std::size_t i0, std::size_t i1);

/// acc[col] += Σ_row m[row·row_stride + col·col_stride], each accumulator
/// updated with row strictly increasing — the exact order of the scalar
/// bias-gradient loops (Dense, Lstm: row-major batch×cols with
/// row_stride = cols, col_stride = 1; im2col Conv2d: per-sample gradient
/// viewed out_c-major with row_stride = 1, col_stride = pixels).
void add_col_sums(const float* m, std::size_t rows, std::size_t cols,
                  std::size_t row_stride, std::size_t col_stride,
                  std::span<float> acc);

/// c[m×n] = a[k×m]ᵀ · b[k×n], rows [i0, i1) of c (columns of a).
void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, std::size_t i0, std::size_t i1);

/// c[m×n] = a[m×k] · b[n×k]ᵀ, rows [i0, i1).  Double accumulation per
/// element (matches the seed kernel used by gradient checking).
void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, std::size_t i0, std::size_t i1);

/// y[m] = a[m×n] · x[n], rows [i0, i1).  Double accumulation.
void gemv(const float* a, const float* x, float* y, std::size_t m,
          std::size_t n, std::size_t i0, std::size_t i1);

// Naive seed implementations, kept verbatim for equivalence tests and the
// old-vs-new benchmark baseline.
void gemm_nn_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);
void gemm_tn_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);
void gemm_nt_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);
void gemv_ref(const float* a, const float* x, float* y, std::size_t m,
              std::size_t n);

// ---------------------------------------------------------------------------
// Fused server aggregation (single pass over the output, L1-blocked)
// ---------------------------------------------------------------------------

/// out[i] = scale · Σ_k xs[k][i].  Per-element accumulation order is k
/// increasing followed by one multiply — the exact op sequence of the
/// seed's accumulate-then-scale, fused into one pass over `out`.
/// Sizes must match (std::invalid_argument otherwise).
void scaled_sum(std::span<const std::span<const float>> xs, float scale,
                std::span<float> out);

/// out[i] = Σ_k w[k] · xs[k][i] — the sample-weighted FedAvg aggregate,
/// same op sequence as the seed's per-client axpy loop.
void weighted_sum(std::span<const std::span<const float>> xs,
                  std::span<const float> w, std::span<float> out);

// Range-sliced forms for the sharded aggregation pipeline.  Each writes only
// out[lo, hi) and reads only that range of every input.  Both tiers compute
// every output element with an op sequence that depends only on the element
// index (k-increasing adds, fused multiply-adds in the fast tier), so a
// range call is bit-identical to the same elements of the full-vector call —
// disjoint ranges may therefore run on different shard threads and the
// concatenated result matches the single-master aggregate byte-for-byte at
// any shard count.  Requires lo <= hi <= out.size().

/// out[i] = scale · Σ_k xs[k][i] for i in [lo, hi).
void scaled_sum_range(std::span<const std::span<const float>> xs, float scale,
                      std::span<float> out, std::size_t lo, std::size_t hi);

/// out[i] = Σ_k w[k] · xs[k][i] for i in [lo, hi).
void weighted_sum_range(std::span<const std::span<const float>> xs,
                        std::span<const float> w, std::span<float> out,
                        std::size_t lo, std::size_t hi);

}  // namespace kernels

// ---------------------------------------------------------------------------
// SignPack — bit-packed three-way sign of a float vector
// ---------------------------------------------------------------------------
//
// Per element, two bits across two parallel word arrays:
//   nonzero bit = (v > 0) || (v < 0)   — false for ±0 and NaN,
//   negative bit = (v < 0)             — meaningful only where nonzero.
// This encodes exactly the three-way sign() convention of vector_ops.h
// (±0, denormal, and NaN semantics preserved bit-for-bit), so packed
// matching is exactly equal to the scalar count_sign_matches.
//
// Packing is a process-local cache (the server packs ū once per broadcast
// and reuses it across all N clients); nothing about the wire format or the
// protocol changes.
class SignPack {
 public:
  SignPack() = default;
  explicit SignPack(std::span<const float> v) { assign(v); }

  /// Re-packs `v`, reusing capacity.
  void assign(std::span<const float> v);

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// True iff every packed element has three-way sign 0.
  bool all_zero() const noexcept;

  std::span<const std::uint64_t> negative_words() const noexcept {
    return neg_;
  }
  std::span<const std::uint64_t> nonzero_words() const noexcept { return nz_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> neg_;
  std::vector<std::uint64_t> nz_;
};

/// Word-parallel equivalent of count_sign_matches(x, y) on two packs.
/// Throws std::invalid_argument on size mismatch.
std::size_t count_sign_matches(const SignPack& x, const SignPack& y);

/// Mixed form: packs x one 64-lane chunk at a time (no allocation) and
/// matches against the cached pack of y.
std::size_t count_sign_matches(std::span<const float> x, const SignPack& y);

/// Range form for sharded relevance scoring: matches of x[lo, hi) against the
/// same element range of the cached pack y.  `x` spans the full vector
/// (x.size() == y.size()); lo must be a multiple of 64 so the range starts on
/// a pack-word boundary, and hi must be a multiple of 64 or y.size().  Sign
/// matching is an exact integer count, so summing disjoint ranges that cover
/// [0, size) equals the full-vector count exactly — the per-shard scores
/// fan in to the single-master relevance score with no rounding concerns.
/// Throws std::invalid_argument on size mismatch or misaligned bounds.
std::size_t count_sign_matches_range(std::span<const float> x,
                                     const SignPack& y, std::size_t lo,
                                     std::size_t hi);

}  // namespace cmfl::tensor
