// The AVX-512 strided GEMM tile (see matmul_kernel.h for the contract).
//
// Each function here carries target("avx512f") instead of the file being
// built with -mavx512f, so nothing outside these functions — in particular
// inline code from the headers — can be emitted with AVX-512 instructions.
// Avx512Tile() hands the tile out only after a runtime cpuid check.  Like
// matmul_kernel.cc, this file is built with -ffp-contract=off: AVX-512F
// includes FMA, and GCC would otherwise fuse each _mm512_mul_ps into the
// _mm512_add_ps that consumes it.

#include "tensor/matmul_kernel.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fewner::tensor::kernel {

#if defined(__x86_64__)

namespace {

#define FEWNER_AVX512 __attribute__((target("avx512f")))

constexpr int kRows = 8;       ///< C rows per register block
constexpr int64_t kPanel = 32; ///< C columns per panel: two zmm vectors

/// Lanes [0, cols) of one 16-lane vector (none for cols <= 0).
FEWNER_AVX512 inline __mmask16 LaneMask(int64_t cols) {
  if (cols <= 0) return 0;
  if (cols >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << cols) - 1u);
}

/// One MI-row x (NV * 16)-column block of C whose columns start at b and c.
/// Each accumulator lane is one output element: +0, then per ascending kk a
/// rounded product added with its own rounding — the naive loop's sequence.
/// Lanes outside `mask` load zeros and are never stored.
template <int MI, int NV>
FEWNER_AVX512 void Block(const float* a, int64_t rs, int64_t ks, const float* b,
                         float* c, int64_t k, int64_t n,
                         const __mmask16 (&mask)[2]) {
  __m512 acc[MI][NV];
#pragma GCC unroll 16
  for (int ii = 0; ii < MI; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[ii][v] = _mm512_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* ak = a + kk * ks;
    const float* brow = b + kk * n;
    __m512 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(mask[v], brow + 16 * v);
    }
#pragma GCC unroll 16
    for (int ii = 0; ii < MI; ++ii) {
      const __m512 aik = _mm512_set1_ps(ak[ii * rs]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[ii][v] = _mm512_add_ps(acc[ii][v], _mm512_mul_ps(aik, bv[v]));
      }
    }
  }
#pragma GCC unroll 16
  for (int ii = 0; ii < MI; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_ps(c + ii * n + 16 * v, mask[v], acc[ii][v]);
    }
  }
}

/// MI rows of one panel; a panel of at most 16 columns runs one vector.
template <int MI>
FEWNER_AVX512 void PanelRows(const float* a, int64_t rs, int64_t ks,
                             const float* b, float* c, int64_t k, int64_t n,
                             const __mmask16 (&mask)[2]) {
  if (mask[1] != 0) {
    Block<MI, 2>(a, rs, ks, b, c, k, n, mask);
  } else {
    Block<MI, 1>(a, rs, ks, b, c, k, n, mask);
  }
}

/// The last `rows` (< kRows) rows of one panel.
template <int MI>
FEWNER_AVX512 void RemainderRows(int64_t rows, const float* a, int64_t rs,
                                 int64_t ks, const float* b, float* c, int64_t k,
                                 int64_t n, const __mmask16 (&mask)[2]) {
  if constexpr (MI > 0) {
    if (rows == MI) {
      PanelRows<MI>(a, rs, ks, b, c, k, n, mask);
    } else {
      RemainderRows<MI - 1>(rows, a, rs, ks, b, c, k, n, mask);
    }
  }
}

FEWNER_AVX512 void Avx512Gemm(const float* a, int64_t rs, int64_t ks,
                              const float* b, float* c, int64_t m, int64_t k,
                              int64_t n) {
  for (int64_t j0 = 0; j0 < n; j0 += kPanel) {
    const __mmask16 mask[2] = {LaneMask(n - j0), LaneMask(n - j0 - 16)};
    int64_t i = 0;
    for (; i + kRows <= m; i += kRows) {
      PanelRows<kRows>(a + i * rs, rs, ks, b + j0, c + i * n + j0, k, n, mask);
    }
    RemainderRows<kRows - 1>(m - i, a + i * rs, rs, ks, b + j0, c + i * n + j0,
                             k, n, mask);
  }
}

#undef FEWNER_AVX512

constexpr GemmTile kAvx512Tile{"avx512", kRows, &Avx512Gemm};

}  // namespace

const GemmTile* Avx512Tile() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") ? &kAvx512Tile : nullptr;
}

#else

const GemmTile* Avx512Tile() { return nullptr; }

#endif

}  // namespace fewner::tensor::kernel
