#include "tensor/matmul_kernel.h"

#include <cstddef>
#include <vector>

#include "tensor/simd.h"

namespace fewner::tensor::kernel {

namespace {

// The portable tile.  The AVX-512 tile lives in matmul_kernel_avx512.cc.

constexpr int64_t kRowTile = 4;  ///< A rows per register block
constexpr int64_t kColTile = 8;  ///< C columns per register block (2 SSE lanes)

/// One MI x kColTile output block: accumulators live in registers across the
/// whole k loop; each B row is loaded once and reused by all MI output rows.
/// Output row ii reads its k-th A value at a[ii * rs + kk * ks]: (rs, ks) is
/// (k, 1) for A·B (C rows are A rows) and (1, lda) for Aᵀ·B (C rows are A
/// columns, so the MI values of one k step are contiguous in A's row kk).
template <int MI>
inline void MicroTile(const float* a, int64_t rs, int64_t ks, const float* b,
                      float* c, int64_t k, int64_t n, int64_t j0) {
  float acc[MI][kColTile] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* ak = a + kk * ks;
    const float* brow = b + kk * n + j0;
    for (int ii = 0; ii < MI; ++ii) {
      const float aik = ak[ii * rs];
      FEWNER_SIMD
      for (int jj = 0; jj < kColTile; ++jj) acc[ii][jj] += aik * brow[jj];
    }
  }
  for (int ii = 0; ii < MI; ++ii) {
    FEWNER_SIMD
    for (int jj = 0; jj < kColTile; ++jj) c[ii * n + j0 + jj] = acc[ii][jj];
  }
}

/// Remainder columns [j0, n): one scalar accumulator per output element,
/// still ascending in k.
template <int MI>
inline void TailCols(const float* a, int64_t rs, int64_t ks, const float* b,
                     float* c, int64_t k, int64_t n, int64_t j0) {
  for (int ii = 0; ii < MI; ++ii) {
    for (int64_t j = j0; j < n; ++j) {
      const float* ap = a + ii * rs;
      const float* bp = b + j;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk, ap += ks, bp += n) acc += *ap * *bp;
      c[ii * n + j] = acc;
    }
  }
}

/// MI consecutive rows of C.
template <int MI>
void RowBlock(const float* a, int64_t rs, int64_t ks, const float* b, float* c,
              int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + kColTile <= n; j += kColTile) MicroTile<MI>(a, rs, ks, b, c, k, n, j);
  if (j < n) TailCols<MI>(a, rs, ks, b, c, k, n, j);
}

/// c[m, n] with C row i reading A through a + i * rs (strides as MicroTile).
void PortableGemm(const float* a, int64_t rs, int64_t ks, const float* b,
                  float* c, int64_t m, int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    RowBlock<kRowTile>(a + i * rs, rs, ks, b, c + i * n, k, n);
  }
  switch (m - i) {
    case 3:
      RowBlock<3>(a + i * rs, rs, ks, b, c + i * n, k, n);
      break;
    case 2:
      RowBlock<2>(a + i * rs, rs, ks, b, c + i * n, k, n);
      break;
    case 1:
      RowBlock<1>(a + i * rs, rs, ks, b, c + i * n, k, n);
      break;
    default:
      break;
  }
}

constexpr GemmTile kPortableTile{"portable", kRowTile, &PortableGemm};

/// Square block edge of PackTranspose: a 16x16 float block touches 16 source
/// and 16 destination cache lines, all of which stay in L1 while the block is
/// copied (one contiguous destination run per source column).
constexpr int64_t kPackBlock = 16;

}  // namespace

// Defined in matmul_kernel_avx512.cc: the AVX-512 tile, or nullptr when this
// build or host cannot run it.
const GemmTile* Avx512Tile();

std::span<const GemmTile* const> HostTiles() {
  // Trivially destructible, so GEMMs stay callable during static teardown.
  static const GemmTile* const wide = Avx512Tile();
  static const GemmTile* const tiles[] = {&kPortableTile, wide};
  return {tiles, wide != nullptr ? 2u : 1u};
}

const GemmTile& ActiveTile() {
  static const GemmTile& active = *HostTiles().back();
  return active;
}

void MatMulBlocked(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, const GemmTile& tile) {
  tile.gemm(a, /*rs=*/k, /*ks=*/1, b, c, m, k, n);
}

void MatMulTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n, int64_t lda, const GemmTile& tile) {
  tile.gemm(a, /*rs=*/1, /*ks=*/lda < 0 ? m : lda, b, c, m, k, n);
}

void PackTranspose(const float* src, float* dst, int64_t rows, int64_t cols) {
  for (int64_t r0 = 0; r0 < rows; r0 += kPackBlock) {
    const int64_t r1 = r0 + kPackBlock < rows ? r0 + kPackBlock : rows;
    for (int64_t c0 = 0; c0 < cols; c0 += kPackBlock) {
      const int64_t c1 = c0 + kPackBlock < cols ? c0 + kPackBlock : cols;
      for (int64_t cc = c0; cc < c1; ++cc) {
        float* drow = dst + cc * rows;
        for (int64_t r = r0; r < r1; ++r) drow[r] = src[r * cols + cc];
      }
    }
  }
}

float* TransposeScratch(int64_t numel) {
  static thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < numel) {
    scratch.resize(static_cast<size_t>(numel));
  }
  return scratch.data();
}

void MatMulNaive(const float* a, const float* b, float* c, int64_t m, int64_t k,
                 int64_t n) {
  for (int64_t x = 0; x < m * n; ++x) c[x] = 0.0f;
  // i-k-j order, unit-stride inner loop.  The aik == 0 skip only elides
  // additions of ±0 products, which never change a (+0-initialized)
  // accumulator for finite inputs — so this stays bitwise-equal to the
  // blocked kernel.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      FEWNER_SIMD
      for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace fewner::tensor::kernel
