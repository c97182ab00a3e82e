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

/// Every lane.  The shuffles below take it as a zeroing mask: GCC's unmasked
/// forms pass _mm512_undefined_ps() and warn (-Wuninitialized).
constexpr __mmask16 kAll = 0xFFFF;

/// Transposes the 16 x 16 block in r in place: afterwards r[j] holds column j,
/// lane i of it being lane j of row i.  Pure data movement.
FEWNER_AVX512 __attribute__((always_inline)) inline void Transpose16(
    __m512 (&r)[16]) {
  __m512 t[16];
  // Within each 128-bit lane L: pairs of rows interleaved, then quads, so
  // r[4g + j] lane L holds rows 4g..4g+3 at column 4L + j.
#pragma GCC unroll 8
  for (int p = 0; p < 8; ++p) {
    t[2 * p] = _mm512_maskz_unpacklo_ps(kAll, r[2 * p], r[2 * p + 1]);
    t[2 * p + 1] = _mm512_maskz_unpackhi_ps(kAll, r[2 * p], r[2 * p + 1]);
  }
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) {
    const __m512* q = t + 4 * g;
    r[4 * g] = _mm512_maskz_shuffle_ps(kAll, q[0], q[2], 0x44);
    r[4 * g + 1] = _mm512_maskz_shuffle_ps(kAll, q[0], q[2], 0xEE);
    r[4 * g + 2] = _mm512_maskz_shuffle_ps(kAll, q[1], q[3], 0x44);
    r[4 * g + 3] = _mm512_maskz_shuffle_ps(kAll, q[1], q[3], 0xEE);
  }
  // Then the 128-bit lanes: column 4L + j gathers lane L of r[j], r[4 + j],
  // r[8 + j] and r[12 + j].
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    const __m512 lo_even = _mm512_maskz_shuffle_f32x4(kAll, r[j], r[4 + j], 0x88);
    const __m512 lo_odd = _mm512_maskz_shuffle_f32x4(kAll, r[j], r[4 + j], 0xDD);
    const __m512 hi_even = _mm512_maskz_shuffle_f32x4(kAll, r[8 + j], r[12 + j], 0x88);
    const __m512 hi_odd = _mm512_maskz_shuffle_f32x4(kAll, r[8 + j], r[12 + j], 0xDD);
    t[j] = _mm512_maskz_shuffle_f32x4(kAll, lo_even, hi_even, 0x88);
    t[4 + j] = _mm512_maskz_shuffle_f32x4(kAll, lo_odd, hi_odd, 0x88);
    t[8 + j] = _mm512_maskz_shuffle_f32x4(kAll, lo_even, hi_even, 0xDD);
    t[12 + j] = _mm512_maskz_shuffle_f32x4(kAll, lo_odd, hi_odd, 0xDD);
  }
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) r[j] = t[j];
}

/// Lanes `kmask` of the first `rows` (<= 16) rows at a, a + rs, ... into
/// col, zeros elsewhere, then transposed: col[kk] lane r is row r's lane kk.
FEWNER_AVX512 __attribute__((always_inline)) inline void LoadColumns(
    const float* a, int64_t rs, int64_t rows, __mmask16 kmask, __m512 (&col)[16]) {
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) {
    col[r] = r < rows ? _mm512_maskz_loadu_ps(kmask, a + r * rs) : _mm512_setzero_ps();
  }
  Transpose16(col);
}

/// c[m] = A·b for a one-column b (n == 1) with unit k stride: 16 output rows
/// per zmm, one lane per row.  Each 16 x 16 block of A (16 rows, 16 k steps)
/// is loaded row by row in place and transposed in registers, so step kk
/// multiplies the column A(i..i+15, kk) by a broadcast b[kk].  Each lane
/// starts at +0 and takes one rounded product and one rounded add per
/// ascending kk — the naive loop's sequence.  Rows past m and k steps past k
/// load zeros and are never stored or used.
FEWNER_AVX512 void ColumnGemm(const float* a, int64_t rs, const float* b,
                              float* c, int64_t m, int64_t k) {
  for (int64_t i0 = 0; i0 < m; i0 += 16) {
    const int64_t rows = m - i0 < 16 ? m - i0 : 16;
    const float* ai = a + i0 * rs;
    __m512 col[16];
    __m512 acc = _mm512_setzero_ps();
    int64_t k0 = 0;
    for (; k0 + 16 <= k; k0 += 16) {
      LoadColumns(ai + k0, rs, rows, kAll, col);
#pragma GCC unroll 16
      for (int kk = 0; kk < 16; ++kk) {
        acc = _mm512_add_ps(acc, _mm512_mul_ps(col[kk], _mm512_set1_ps(b[k0 + kk])));
      }
    }
    if (k0 < k) {
      LoadColumns(ai + k0, rs, rows, LaneMask(k - k0), col);
      for (int64_t kk = 0; kk < k - k0; ++kk) {
        acc = _mm512_add_ps(acc, _mm512_mul_ps(col[kk], _mm512_set1_ps(b[k0 + kk])));
      }
    }
    _mm512_mask_storeu_ps(c + i0, LaneMask(rows), acc);
  }
}

FEWNER_AVX512 void Avx512Gemm(const float* a, int64_t rs, int64_t ks,
                              const float* b, float* c, int64_t m, int64_t k,
                              int64_t n) {
  if (n == 1 && ks == 1) {
    ColumnGemm(a, rs, b, c, m, k);
    return;
  }
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
