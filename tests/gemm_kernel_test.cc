// Kernel-layer coverage for the transpose-free GEMM family and the
// deterministic intra-op dispatch (tensor/matmul_kernel.h, tensor/intraop.h).
//
// Three claims are pinned here, all to the last bit:
//   1. MatMulBlocked / GemmNT / MatMulTN match naive ascending-k references
//      on shapes that straddle every tile remainder, for every register tile
//      this host can run — and NT/TN match the transpose-then-MatMulBlocked
//      composition they replaced.  Each multiply and add rounds separately
//      (no FMA), and the blocked pack is an exact transpose.
//      An m = 1 NT, which reads B in place instead of packing it, is held
//      to the same references.
//   2. Row-sharded parallel dispatch is bitwise-invariant to the intra-op
//      budget: each output element keeps its single ascending-k accumulator
//      no matter which slab (thread) computes it.
//   3. Concurrent dispatchers on the shared slab pool do not interfere —
//      re-run under -DFEWNER_SANITIZE=thread via the `tsan` ctest label.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/intraop.h"
#include "tensor/matmul_kernel.h"
#include "util/rng.h"

namespace fewner::tensor {
namespace {

std::vector<float> RandomVec(int64_t numel, util::Rng* rng) {
  std::vector<float> v(static_cast<size_t>(numel));
  for (float& x : v) x = static_cast<float>(rng->Gaussian(0.0, 1.0));
  return v;
}

void ExpectBitwiseEqual(const std::vector<float>& got,
                        const std::vector<float>& want, const char* what,
                        int64_t m, int64_t k, int64_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " m=" << m << " k=" << k << " n=" << n << " elem " << i
        << ": " << got[i] << " vs " << want[i];
  }
}

/// Reference NT: c[i, j] = sum_kk a[i, kk] * b[j, kk], kk ascending, one
/// scalar accumulator per element.
void NaiveNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[j * k + kk];
      c[i * n + j] = acc;
    }
  }
}

/// Reference TN: c[i, j] = sum_kk a[kk, i] * b[kk, j], kk ascending.
void NaiveTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[kk * m + i] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

std::vector<float> Transposed(const std::vector<float>& src, int64_t rows,
                              int64_t cols) {
  std::vector<float> dst(src.size());
  kernel::PackTranspose(src.data(), dst.data(), rows, cols);
  return dst;
}

TEST(GemmKernelTest, FamilyMatchesNaiveReferencesBitwiseOnSweep) {
  // Every host tile (portable 4x8, and 8x32 AVX-512 where the CPU has it).
  // m runs past two full row blocks plus every row remainder of the tallest
  // tile (up to 3·MI − 1); n covers every 8-column remainder and the 32-wide
  // panel's masked tails; 24 and 32 are exact multiples.
  // GemmNT at budget 1 is the unsharded NT: pack bᵀ, then NN (m = 1: b·aᵀ).
  const ParallelismBudget serial(1);
  int64_t max_rows = 0;
  for (const kernel::GemmTile* tile : kernel::HostTiles()) {
    max_rows = std::max(max_rows, tile->rows);
  }
  std::vector<int64_t> m_sizes;
  for (int64_t s = 1; s <= std::max<int64_t>(17, 3 * max_rows - 1); ++s) {
    m_sizes.push_back(s);
  }
  std::vector<int64_t> k_sizes;
  for (int64_t s = 1; s <= 17; ++s) k_sizes.push_back(s);
  std::vector<int64_t> n_sizes = k_sizes;
  for (int64_t s : {24, 32}) {
    k_sizes.push_back(s);
    if (s > m_sizes.back()) m_sizes.push_back(s);
  }
  for (int64_t s : {24, 31, 32, 33, 47, 48, 63, 64, 65}) n_sizes.push_back(s);

  for (const kernel::GemmTile* tile : kernel::HostTiles()) {
    SCOPED_TRACE(tile->name);
    util::Rng rng(2024);
    for (int64_t m : m_sizes) {
      for (int64_t k : k_sizes) {
        for (int64_t n : n_sizes) {
          const std::vector<float> a_nn = RandomVec(m * k, &rng);
          const std::vector<float> b_nn = RandomVec(k * n, &rng);
          std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
          std::vector<float> want(static_cast<size_t>(m * n), -2.0f);

          kernel::MatMulBlocked(a_nn.data(), b_nn.data(), got.data(), m, k, n,
                                *tile);
          kernel::MatMulNaive(a_nn.data(), b_nn.data(), want.data(), m, k, n);
          ExpectBitwiseEqual(got, want, "NN", m, k, n);

          // NT with the same operands read as a[m, k], b[n, k].
          const std::vector<float> b_nt = RandomVec(n * k, &rng);
          kernel::GemmNT(a_nn.data(), b_nt.data(), got.data(), m, k, n, *tile);
          NaiveNT(a_nn.data(), b_nt.data(), want.data(), m, k, n);
          ExpectBitwiseEqual(got, want, "NT", m, k, n);

          // ... and against the graph-level composition NT replaced:
          // MatMulBlocked(a, transpose(b)).
          const std::vector<float> b_nt_t = Transposed(b_nt, n, k);  // [k, n]
          kernel::MatMulBlocked(a_nn.data(), b_nt_t.data(), want.data(), m, k,
                                n, *tile);
          kernel::GemmNT(a_nn.data(), b_nt.data(), got.data(), m, k, n, *tile);
          ExpectBitwiseEqual(got, want, "NT-vs-transpose", m, k, n);

          // TN with a read as [k, m].
          const std::vector<float> a_tn = RandomVec(k * m, &rng);
          kernel::MatMulTN(a_tn.data(), b_nn.data(), got.data(), m, k, n, -1,
                           *tile);
          NaiveTN(a_tn.data(), b_nn.data(), want.data(), m, k, n);
          ExpectBitwiseEqual(got, want, "TN", m, k, n);

          const std::vector<float> a_tn_t = Transposed(a_tn, k, m);  // [m, k]
          kernel::MatMulBlocked(a_tn_t.data(), b_nn.data(), want.data(), m, k,
                                n, *tile);
          kernel::MatMulTN(a_tn.data(), b_nn.data(), got.data(), m, k, n, -1,
                           *tile);
          ExpectBitwiseEqual(got, want, "TN-vs-transpose", m, k, n);
        }
      }
    }
  }
}

TEST(GemmKernelTest, EveryTileRoundsMultiplyAndAddSeparately) {
  // c = 1·(−1) + q·q with q = 1 + 2⁻¹².  The exact q² = 1 + 2⁻¹¹ + 2⁻²⁴ is
  // a tie that rounds (to even) to 1 + 2⁻¹¹, so a separate multiply and add
  // give exactly 2⁻¹¹, while a fused multiply-add keeps the 2⁻²⁴ and gives
  // 2⁻¹¹ + 2⁻²⁴.  Every element of a shape that spans full blocks, row
  // remainders and column tails of every tile carries this sum.
  const ParallelismBudget serial(1);  // unsharded GemmNT
  const float q = 1.0f + std::ldexp(1.0f, -12);
  const float want = std::ldexp(1.0f, -11);
  for (const kernel::GemmTile* tile : kernel::HostTiles()) {
    const int64_t m = 3 * tile->rows - 1, k = 2, n = 65;
    std::vector<float> a(static_cast<size_t>(m * k));    // [m, k]
    std::vector<float> a_tn(static_cast<size_t>(k * m));  // [k, m]
    for (int64_t i = 0; i < m; ++i) {
      a[i * k] = a_tn[i] = 1.0f;
      a[i * k + 1] = a_tn[m + i] = q;
    }
    std::vector<float> b(static_cast<size_t>(k * n));     // [k, n]
    std::vector<float> b_nt(static_cast<size_t>(n * k));  // [n, k]
    for (int64_t j = 0; j < n; ++j) {
      b[j] = b_nt[j * k] = -1.0f;
      b[n + j] = b_nt[j * k + 1] = q;
    }
    std::vector<float> got(static_cast<size_t>(m * n));
    const char* const layouts[] = {"NN", "NT", "TN"};
    for (int layout = 0; layout < 3; ++layout) {
      std::fill(got.begin(), got.end(), -1.0f);
      if (layout == 0) {
        kernel::MatMulBlocked(a.data(), b.data(), got.data(), m, k, n, *tile);
      } else if (layout == 1) {
        kernel::GemmNT(a.data(), b_nt.data(), got.data(), m, k, n, *tile);
      } else {
        kernel::MatMulTN(a_tn.data(), b.data(), got.data(), m, k, n, -1, *tile);
      }
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want)
            << tile->name << " " << layouts[layout] << " elem " << i
            << ": a multiply and its add were fused into one FMA — build "
               "src/tensor/matmul_kernel*.cc with -ffp-contract=off";
      }
    }
  }

  // The one-column products (n == 1: A·b, and an m = 1 A·Bᵀ read as B·aᵀ),
  // which the AVX-512 tile runs 16 rows per register through in-register
  // transposes.  Every row's k = 35 products are zero but for 2²⁴ at step 0,
  // 1 and −2²⁴ at steps 16 and 17, and −1 and q·q (q = 1 + 2⁻¹²) at steps 33
  // and 34.  In ascending order 2²⁴ + 1 rounds back to 2²⁴, so the sum
  // reaches −1 and then, with a separate multiply and add, exactly 2⁻¹¹.  A
  // fused last step gives 2⁻¹¹ + 2⁻²⁴.  Summing k in 16 partial lanes, or per
  // 16-step block, keeps the 1 and misses 2⁻¹¹.  m = 47 spans two full
  // 16-row blocks and a remainder, k two full 16-step blocks and a tail.
  const float big = std::ldexp(1.0f, 24);
  const int64_t m = 47, k = 35;
  std::vector<float> u(static_cast<size_t>(k), 0.0f);  // A's row
  std::vector<float> v(static_cast<size_t>(k), 0.0f);  // b
  u[0] = big, v[0] = 1.0f;
  u[16] = 1.0f, v[16] = 1.0f;
  u[17] = -big, v[17] = 1.0f;
  u[33] = 1.0f, v[33] = -1.0f;
  u[34] = q, v[34] = q;
  std::vector<float> a(static_cast<size_t>(m * k));     // [m, k]
  std::vector<float> a_tn(static_cast<size_t>(k * m));  // [k, m]
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      a[i * k + kk] = a_tn[kk * m + i] = u[static_cast<size_t>(kk)];
    }
  }
  for (const kernel::GemmTile* tile : kernel::HostTiles()) {
    std::vector<float> got(static_cast<size_t>(m));
    const char* const layouts[] = {"NN", "NT", "TN", "NT m=1"};
    for (int layout = 0; layout < 4; ++layout) {
      std::fill(got.begin(), got.end(), -1.0f);
      if (layout == 0) {
        kernel::MatMulBlocked(a.data(), v.data(), got.data(), m, k, 1, *tile);
      } else if (layout == 1) {
        kernel::GemmNT(a.data(), v.data(), got.data(), m, k, 1, *tile);
      } else if (layout == 2) {
        kernel::MatMulTN(a_tn.data(), v.data(), got.data(), m, k, 1, -1, *tile);
      } else {
        kernel::GemmNT(v.data(), a.data(), got.data(), 1, k, m, *tile);
      }
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want)
            << tile->name << " " << layouts[layout] << " elem " << i
            << ": a one-column product fused a multiply and its add, or did "
               "not add its k terms in ascending order";
      }
    }
  }
}

TEST(GemmKernelTest, PackTransposeMatchesNaiveTransposeBitwise) {
  // The 16x16-blocked pack on shapes with partial blocks on either edge, and
  // on FiLM's [256, 512] generator weight.
  struct Case {
    int64_t rows, cols;
  };
  const Case cases[] = {{1, 1}, {15, 17}, {33, 16}, {256, 512}};
  util::Rng rng(16);
  for (const Case& c : cases) {
    const std::vector<float> src = RandomVec(c.rows * c.cols, &rng);
    std::vector<float> want(src.size());
    for (int64_t r = 0; r < c.rows; ++r) {
      for (int64_t cc = 0; cc < c.cols; ++cc) {
        want[static_cast<size_t>(cc * c.rows + r)] =
            src[static_cast<size_t>(r * c.cols + cc)];
      }
    }
    std::vector<float> got(src.size(), -1.0f);
    kernel::PackTranspose(src.data(), got.data(), c.rows, c.cols);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << c.rows << "x" << c.cols;
  }
}

TEST(GemmKernelTest, TnColumnBlockWithLeadingDimensionMatchesFullMatrix) {
  // The sharded dispatch computes a row range of C as a *column* block of A
  // addressed through lda; splicing the block results must reproduce the
  // whole-matrix call bitwise.
  util::Rng rng(7);
  const int64_t m = 23, k = 31, n = 13;
  const std::vector<float> a = RandomVec(k * m, &rng);
  const std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> whole(static_cast<size_t>(m * n));
  kernel::MatMulTN(a.data(), b.data(), whole.data(), m, k, n);
  std::vector<float> spliced(static_cast<size_t>(m * n), -1.0f);
  for (int64_t row0 : {int64_t{0}, int64_t{9}, int64_t{18}}) {
    const int64_t rows = std::min<int64_t>(9, m - row0);
    kernel::MatMulTN(a.data() + row0, b.data(), spliced.data() + row0 * n, rows,
                     k, n, /*lda=*/m);
  }
  ExpectBitwiseEqual(spliced, whole, "TN-lda", m, k, n);
}

TEST(GemmKernelTest, ShardedDispatchBitwiseEqualAcrossBudgets) {
  // Shapes chosen to clear the flop threshold (m·k·n >= 2^18) with awkward
  // row counts, so the slab partition has remainders; plus one below the
  // threshold to cover the serial gate.  Budgets beyond the hardware simply
  // queue — the result may not get faster, but it must not change.
  struct Case {
    int64_t m, k, n;
  };
  const Case cases[] = {{97, 64, 48}, {128, 80, 33}, {259, 37, 40}, {16, 8, 8}};
  for (const kernel::GemmTile* tile : kernel::HostTiles()) {
    SCOPED_TRACE(tile->name);
    util::Rng rng(99);
    for (const Case& c : cases) {
      const std::vector<float> a = RandomVec(c.m * c.k, &rng);
      const std::vector<float> b_nn = RandomVec(c.k * c.n, &rng);
      const std::vector<float> b_nt = RandomVec(c.n * c.k, &rng);
      const std::vector<float> a_tn = RandomVec(c.k * c.m, &rng);
      std::vector<float> serial_nn(static_cast<size_t>(c.m * c.n));
      std::vector<float> serial_nt(static_cast<size_t>(c.m * c.n));
      std::vector<float> serial_tn(static_cast<size_t>(c.m * c.n));
      {
        ParallelismBudget one(1);
        kernel::GemmNN(a.data(), b_nn.data(), serial_nn.data(), c.m, c.k, c.n,
                       *tile);
        kernel::GemmNT(a.data(), b_nt.data(), serial_nt.data(), c.m, c.k, c.n,
                       *tile);
        kernel::GemmTN(a_tn.data(), b_nn.data(), serial_tn.data(), c.m, c.k,
                       c.n, *tile);
      }
      for (int64_t budget : {2, 3, 8}) {
        ParallelismBudget scoped(budget);
        std::vector<float> got(static_cast<size_t>(c.m * c.n), -1.0f);
        kernel::GemmNN(a.data(), b_nn.data(), got.data(), c.m, c.k, c.n, *tile);
        ExpectBitwiseEqual(got, serial_nn, "GemmNN", c.m, c.k, budget);
        kernel::GemmNT(a.data(), b_nt.data(), got.data(), c.m, c.k, c.n, *tile);
        ExpectBitwiseEqual(got, serial_nt, "GemmNT", c.m, c.k, budget);
        kernel::GemmTN(a_tn.data(), b_nn.data(), got.data(), c.m, c.k, c.n,
                       *tile);
        ExpectBitwiseEqual(got, serial_tn, "GemmTN", c.m, c.k, budget);
      }
    }
  }
}

TEST(GemmKernelTest, SingleRowNtReadsBInPlaceBitwise) {
  // An m = 1 A·Bᵀ (FiLM's dφ = g·W_filmᵀ) runs as c[1, n]ᵀ = b[n, k]·a[k]:
  // one strided-tile call that reads b in place, with no pack.  It must equal
  // naive NT and the pack-then-NN product on every host tile, through
  // GemmNT at every budget.  n = 1024 with k = 512
  // clears the flop threshold, so budgets > 1 shard b's rows there.
  //
  // On the AVX-512 tile this is its one-column path, 16 rows of b per
  // register: n = 15, 16 and 17 straddle one register, k = 17 a transpose
  // block.  A second pass sprinkles ±0, NaN, ±inf and subnormals into both
  // operands.  Its NaN is the host's default NaN (what 0·inf makes), so every
  // NaN an output can hold has one bit pattern whatever the operand order.
  volatile float zero = 0.0f;
  const float default_nan = zero * std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            default_nan,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -3.0f * std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 4.0f};
  auto operand = [&](int64_t numel, bool with_specials, util::Rng* rng) {
    std::vector<float> v = RandomVec(numel, rng);
    if (with_specials) {
      for (float& x : v) {
        const uint64_t draw = rng->Next() % 48;
        if (draw < std::size(specials)) x = specials[draw];
      }
    }
    return v;
  };
  for (bool with_specials : {false, true}) {
    SCOPED_TRACE(with_specials ? "with specials" : "gaussian");
    for (const kernel::GemmTile* tile : kernel::HostTiles()) {
      SCOPED_TRACE(tile->name);
      util::Rng rng(with_specials ? 32 : 31);
      for (int64_t n : {1, 15, 16, 17, 31, 33, 256, 1024}) {
        for (int64_t k : {1, 17, 512}) {
          const std::vector<float> a = operand(k, with_specials, &rng);
          const std::vector<float> b = operand(n * k, with_specials, &rng);
          std::vector<float> want(static_cast<size_t>(n));
          NaiveNT(a.data(), b.data(), want.data(), 1, k, n);
          std::vector<float> got(static_cast<size_t>(n), -1.0f);
          const std::vector<float> bt = Transposed(b, n, k);  // [k, n]
          kernel::MatMulBlocked(a.data(), bt.data(), got.data(), 1, k, n, *tile);
          ExpectBitwiseEqual(got, want, "pack-then-NN", 1, k, n);
          for (int64_t budget : {1, 2, 3, 8}) {
            ParallelismBudget scoped(budget);
            std::fill(got.begin(), got.end(), -1.0f);
            kernel::GemmNT(a.data(), b.data(), got.data(), 1, k, n, *tile);
            ExpectBitwiseEqual(got, want, "GemmNT", 1, k, budget);
          }
        }
      }
    }
  }
}

TEST(GemmKernelTest, ParallelismBudgetScopesNestAndRestore) {
  const int64_t ambient = ParallelismBudget::current();
  {
    ParallelismBudget outer(4);
    EXPECT_EQ(ParallelismBudget::current(), 4);
    {
      ParallelismBudget inner(-3);  // clamps to 1
      EXPECT_EQ(ParallelismBudget::current(), 1);
      {
        ParallelismBudget innermost(2);
        EXPECT_EQ(ParallelismBudget::current(), 2);
      }
      EXPECT_EQ(ParallelismBudget::current(), 1);
    }
    EXPECT_EQ(ParallelismBudget::current(), 4);
  }
  EXPECT_EQ(ParallelismBudget::current(), ambient);
}

TEST(GemmKernelTest, BudgetScopesAreThreadLocal) {
  ParallelismBudget outer(6);
  int64_t seen_on_thread = -1;
  std::thread probe([&] { seen_on_thread = ParallelismBudget::current(); });
  probe.join();
  // The spawned thread never saw this thread's scope.
  EXPECT_NE(seen_on_thread, 6);
  EXPECT_EQ(ParallelismBudget::current(), 6);
}

TEST(GemmKernelTest, ConcurrentDispatchStress) {
  // Several threads dispatch sharded GEMMs on the shared slab pool at once —
  // the per-dispatch latch must keep them independent, and every result must
  // still match the serial reference bitwise.  Meaningful under tsan.
  util::Rng rng(1234);
  const int64_t m = 96, k = 64, n = 48;  // above the flop threshold
  const std::vector<float> a = RandomVec(m * k, &rng);
  const std::vector<float> b = RandomVec(k * n, &rng);
  const std::vector<float> a_tn = Transposed(a, m, k);  // [k, m]
  std::vector<float> want(static_cast<size_t>(m * n));
  {
    ParallelismBudget one(1);
    kernel::GemmNN(a.data(), b.data(), want.data(), m, k, n);
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ParallelismBudget scoped(3);
      std::vector<float> got(static_cast<size_t>(m * n));
      for (int it = 0; it < kIters; ++it) {
        if (it % 2 == 0) {
          kernel::GemmNN(a.data(), b.data(), got.data(), m, k, n);
        } else {
          // TN on aᵀ reproduces the same product, and the kernel contract
          // says the same bits.
          kernel::GemmTN(a_tn.data(), b.data(), got.data(), m, k, n);
        }
        if (std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)) != 0) {
          ++failures[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[static_cast<size_t>(t)], 0);
}

}  // namespace
}  // namespace fewner::tensor
