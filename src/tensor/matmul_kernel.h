// Single-precision GEMM kernels for the op layer.
//
// MatMulBlocked is the production NN kernel: register-tiled over a 4x8 block
// of the output so each loaded B row is reused across four A rows and the
// eight accumulators stay in registers across the whole k loop.  The inner
// loops carry portable vectorization hints (omp simd when available,
// compiler-specific pragmas otherwise) and no fast-math assumptions.
//
// MatMulTN (Aᵀ·B) runs the very same micro-tile: one strided tile serves
// both, reading A through a (row stride, k stride) pair — (k, 1) for A·B,
// (1, lda) for Aᵀ·B.  For Aᵀ·B each k step's A values are contiguous (one
// row of A) and the B row is contiguous, so it runs at MatMulBlocked speed
// with zero copies — this is what lets MatMul's backward dW = xᵀ·grad drop
// the materialized [B·L, dim] activation transpose entirely.  It takes an
// explicit leading dimension for A so a row range of C (= column range of A)
// can be computed in isolation.
//
// MatMulNT (A·Bᵀ) packs Bᵀ into a per-thread scratch buffer and runs the
// blocked NN core.  A direct NT kernel cannot vectorize: both operands stream
// along k, and the bitwise contract below forbids splitting the k
// accumulation across SIMD lanes.  Packing performs exactly the data movement
// the old graph-level `Transpose(b)` did — same bits — but without a graph
// node, without an allocation in steady state (the scratch is reused), and
// packed once per call even when the multiply itself is row-sharded across
// threads.  B here is the *weight* operand ([k, n] with k·n ≪ m·k·n flops),
// so the pack is noise next to the multiply.
//
// Bitwise contract: for every output element, partial products are accumulated
// in ascending contraction order onto a single accumulator — exactly the
// sequence the reference i-k-j loop performs — so blocked and naive results
// are identical to the last bit (0 ULP) for finite inputs, regardless of tile
// remainders, and NT/TN results are identical to transpose-then-MatMulBlocked
// (same products, same order; IEEE multiplication is commutative).
// tests/tensor_test.cc and tests/gemm_kernel_test.cc enforce this on
// non-multiple-of-tile shapes.  Keeping the order fixed is what lets eval
// mode and graph mode share these kernels while the differential suite
// demands bitwise equality, and is also what makes row-sharded parallel
// dispatch (tensor/intraop.h) bitwise-safe: the per-element sequence does not
// depend on which slab — or thread — computes the element.

#pragma once

#include <cstdint>

namespace fewner::tensor::kernel {

/// c[m, n] = a[m, k] * b[k, n], row-major, c fully overwritten.
void MatMulBlocked(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// c[m, n] = a[m, k] * b[n, k]ᵀ, row-major, c fully overwritten.  Contraction
/// runs over the shared trailing dimension k in ascending order.  Internally
/// packs bᵀ into a thread-local scratch buffer (see header comment).
void MatMulNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n);

/// c[m, n] = a[k, lda]ᵀ (columns [0, m)) * b[k, n], row-major, c fully
/// overwritten.  Contraction runs over a's leading dimension k in ascending
/// order.  `lda` is a's row stride; pass lda == m (the default via -1) for a
/// whole [k, m] matrix, or lda == full width with `a` offset to a column
/// block when computing a row range of C.
void MatMulTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n, int64_t lda = -1);

/// dst[cols, rows] = src[rows, cols]ᵀ — the pack step MatMulNT uses.  Exposed
/// so the parallel dispatcher can pack once and shard the multiply.
void PackTranspose(const float* src, float* dst, int64_t rows, int64_t cols);

/// Thread-local scratch of at least `numel` floats, reused across calls.
/// Valid until the calling thread's next TransposeScratch call.
float* TransposeScratch(int64_t numel);

/// Reference scalar i-k-j loop (the pre-tiling implementation).  c is fully
/// overwritten.  Kept for differential tests and the throughput bench.
void MatMulNaive(const float* a, const float* b, float* c, int64_t m, int64_t k,
                 int64_t n);

}  // namespace fewner::tensor::kernel
