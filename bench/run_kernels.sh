#!/usr/bin/env sh
# Records the kernel-throughput baseline BENCH_kernels.json at the repo root
# from a Release build, then re-runs the SIMD equivalence tests under
# AddressSanitizer+UBSan.
#
#   bench/run_kernels.sh [build_dir] [--benchmark_* flags...]
#
# The build dir (default build-release/) is configured
# -DCMAKE_BUILD_TYPE=Release; a tracked baseline recorded from a debug or
# unoptimized binary is meaningless, so the script verifies the binary's own
# build-type stamp in the recorded JSON (custom context `cmfl_build_type` —
# the library_build_type key only describes how libbenchmark was compiled;
# with the vendored benchmark_lite it reads "release" by construction) and
# fails loudly on a mismatch.  The JSON also carries a `cmfl_simd` stamp
# ("avx2-fma" or "scalar") recording whether the *_Fast tier rows actually
# ran vector kernels on this host; the script requires the stamp to be
# present.  Compare a fresh run against the checked-in baseline before
# merging any change that touches tensor/kernels*.cpp — regressions must be
# explained.
#
# Thread pinning: the MT roofline rows (BM_GemmNN_MT/N/real_time,
# BM_GemmNN_FastMT/N/real_time) pin their own worker counts in-process and
# divide by wall time.  Everything else honors the
# CMFL_THREADS environment variable when the kernel thread setting is auto,
# e.g. `CMFL_THREADS=1 bench/run_kernels.sh` for a fully serial record.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR="$REPO_ROOT/build-release"
case "${1:-}" in
  --*) ;;                        # first arg is a benchmark flag, keep default
  "") ;;
  *) BUILD_DIR=$1; shift ;;
esac

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_kernels

OUT="$REPO_ROOT/BENCH_kernels.json"
"$BUILD_DIR/bench/bench_kernels" --benchmark_out="$OUT" \
                                 --benchmark_out_format=json "$@"

if ! grep -q '"cmfl_build_type": "Release"' "$OUT"; then
  echo "ERROR: $OUT was not recorded from a Release build" >&2
  echo "       (cmfl_build_type context: $(grep -o '"cmfl_build_type":[^,]*' "$OUT" || echo missing))" >&2
  exit 1
fi
if ! grep -q '"cmfl_simd": "' "$OUT"; then
  echo "ERROR: $OUT carries no cmfl_simd provenance stamp" >&2
  exit 1
fi
SIMD=$(grep -o '"cmfl_simd": "[^"]*"' "$OUT" | cut -d'"' -f4)
echo "wrote $OUT (Release provenance verified, simd=$SIMD)"

# --- ASan+UBSan gate over the SIMD equivalence tests ---
# The fast-tier kernels read with vector loads near buffer tails; the
# equivalence suites must stay clean under address+undefined before a
# baseline recorded from them is accepted.
ASAN_DIR="${BUILD_DIR}-asan-ubsan"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$(nproc)" --target test_tensor_simd test_tensor_kernels
"$ASAN_DIR/tests/test_tensor_simd"
"$ASAN_DIR/tests/test_tensor_kernels"
echo "ASan+UBSan SIMD equivalence gates passed"
