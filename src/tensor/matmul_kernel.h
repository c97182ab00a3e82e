// Single-precision GEMM kernels for the op layer.
//
// Every product — A·B, Aᵀ·B and (through a pack, or at m = 1 as B·aᵀ) A·Bᵀ —
// runs one strided register-tiled GEMM.  Its micro-tile keeps an MI x NC block of C in
// registers across the whole k loop, so each loaded B row is reused by MI A
// rows.  A is read through a (row stride, k stride) pair: (k, 1) for A·B,
// (1, lda) for Aᵀ·B.  For Aᵀ·B each k step's MI A values are contiguous (one
// row of A) and the B row is contiguous, so it runs at A·B speed with zero
// copies — this is what lets MatMul's backward dW = xᵀ·grad skip the
// materialized [B·L, dim] activation transpose.  MatMulTN takes an explicit
// leading dimension for A so a row range of C (= column range of A) can be
// computed in isolation.
//
// Tiles, one source file per instruction set:
//   * "portable" (matmul_kernel.cc): 4 x 8, two SSE lanes on baseline
//     x86-64, written as plain loops with vectorization hints.  Row blocks
//     outside, 8-column blocks inside, scalar remainder columns.
//   * "avx512" (matmul_kernel_avx512.cc): 8 x 32, two zmm accumulators per
//     row.  32-column panels outside, row blocks inside, so one [k, 32] B
//     panel stays cache-hot across all of C's rows; the column tail uses
//     masked loads and stores.  A one-column product (n == 1) with A's k
//     stride 1 — A·b, and so the m = 1 A·Bᵀ below — would use one lane in
//     sixteen that way, so it runs 16 rows of C per zmm instead: it reads
//     A in place, 16 rows x 16 k steps at a time (masked past m and k),
//     transposes each block in registers, and adds column kk times a
//     broadcast b[kk] into the 16 row accumulators, kk ascending.  No pack,
//     no scratch.  Its functions carry
//     __attribute__((target("avx512f"))) — the file is NOT built with
//     -mavx512f, which would let inline header code it instantiates be
//     emitted with AVX-512 instructions and fault on hosts without them.
// HostTiles() lists the tiles this host can run.  ActiveTile() is the widest
// of them, chosen once per process by __builtin_cpu_supports("avx512f")
// (x86-64 only); every other host runs the portable tile.  The entry points
// below take a trailing tile that defaults to ActiveTile(); only tests and
// bench/gemm_scaling pass one, to drive each host tile.
//
// An NT GEMM (A·Bᵀ, kernel::GemmNT in tensor/intraop.h; there is no separate
// unsharded entry) packs Bᵀ into a per-thread scratch buffer and runs the NN
// tile.  A direct NT kernel cannot vectorize: both operands stream along k,
// and the bitwise contract below forbids splitting the k accumulation across
// SIMD lanes.  Packing performs exactly the data movement the old graph-level
// `Transpose(b)` did — same bits — without a graph node or a steady-state
// allocation, once per call even when the multiply is row-sharded.  The
// pack is a 16x16 cache-blocked copy.  At m = 1 the pack would move all k·n
// floats of B for only k·n multiply-adds — FiLM's dφ = g·W_filmᵀ,
// [1,512]·[256,512]ᵀ, is that case — so an m = 1 product skips it and runs
// c[1, n]ᵀ = b[n, k]·a[k]: one strided-tile call with B as the tile's A
// operand, read in place — the AVX-512 tile's one-column path.  Each c[j]
// is the same ascending-k chain of the same products (IEEE multiplication is
// commutative), so the bits do not change.
//
// Bitwise contract: for every output element, partial products are
// accumulated in ascending contraction order onto a single accumulator, each
// step a separate multiply then add — exactly the sequence the reference
// i-k-j loop performs — so every tile and the naive loop agree to the last
// bit (0 ULP) for finite inputs, regardless of tile remainders, and NT/TN
// results are identical to transpose-then-MatMulBlocked (same products, same
// order; IEEE multiplication is commutative).  Both kernel files MUST be
// compiled with -ffp-contract=off (src/tensor/CMakeLists.txt): GCC's C++
// default, -ffp-contract=fast, fuses a multiply and its add into one FMA on
// any FMA target — AVX-512F included — and that single rounding moves bits.
// tests/gemm_kernel_test.cc runs every host tile against naive references on
// non-multiple-of-tile shapes, and fails with a message naming the flag when
// a multiply-add is fused.  Keeping the order fixed is what lets eval mode
// and graph mode share these kernels, and what makes row-sharded parallel
// dispatch (tensor/intraop.h) bitwise-safe: the per-element sequence does not
// depend on which slab — or thread — computes the element.

#pragma once

#include <cstdint>
#include <span>

namespace fewner::tensor::kernel {

/// c[m, n] = A·b with A(i, kk) = a[i * rs + kk * ks] and b a [k, n]
/// row-major matrix; c fully overwritten.
using StridedGemmFn = void (*)(const float* a, int64_t rs, int64_t ks,
                               const float* b, float* c, int64_t m, int64_t k,
                               int64_t n);

/// One register-tile implementation of the strided GEMM.
struct GemmTile {
  const char* name;   ///< "portable" or "avx512"
  int64_t rows;       ///< C rows per register block (MI)
  StridedGemmFn gemm;
};

/// The tiles this host can run: portable first, then any wider one.
std::span<const GemmTile* const> HostTiles();

/// The widest tile in HostTiles(), chosen once per process.
const GemmTile& ActiveTile();

/// c[m, n] = a[m, k] * b[k, n], row-major, c fully overwritten.
void MatMulBlocked(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, const GemmTile& tile = ActiveTile());

/// c[m, n] = a[k, lda]ᵀ (columns [0, m)) * b[k, n], row-major, c fully
/// overwritten.  Contraction runs over a's leading dimension k in ascending
/// order.  `lda` is a's row stride; pass lda == m (the default via -1) for a
/// whole [k, m] matrix, or lda == full width with `a` offset to a column
/// block when computing a row range of C.
void MatMulTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n, int64_t lda = -1, const GemmTile& tile = ActiveTile());

/// dst[cols, rows] = src[rows, cols]ᵀ — the pack step of an NT GEMM, a
/// 16x16 cache-blocked copy.  Exposed so the parallel dispatcher can pack
/// once and shard the multiply.
void PackTranspose(const float* src, float* dst, int64_t rows, int64_t cols);

/// Thread-local scratch of at least `numel` floats, reused across calls.
/// Valid until the calling thread's next TransposeScratch call.
float* TransposeScratch(int64_t numel);

/// Reference scalar i-k-j loop (the pre-tiling implementation).  c is fully
/// overwritten.  Kept for differential tests and the throughput bench.
void MatMulNaive(const float* a, const float* b, float* c, int64_t m, int64_t k,
                 int64_t n);

}  // namespace fewner::tensor::kernel
