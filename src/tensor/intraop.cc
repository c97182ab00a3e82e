#include "tensor/intraop.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "tensor/matmul_kernel.h"
#include "util/thread_pool.h"

namespace fewner::tensor {

namespace {

/// Innermost live ParallelismBudget scope on this thread; 0 means "no scope",
/// which falls back to the FEWNER_INTRAOP_THREADS default.
thread_local int64_t g_budget = 0;

int64_t DefaultBudget() {
  static const int64_t cached = util::ThreadCountFromEnv("FEWNER_INTRAOP_THREADS");
  return cached;
}

/// Minimum flop volume (m·k·n) before a GEMM is worth sharding: below this,
/// the per-slab queue round-trip eats the win.  ~a [128, 64]x[64, 32] step.
constexpr int64_t kFlopThreshold = int64_t{1} << 18;

/// Shared pool for intra-op slabs, created on first parallel dispatch and
/// intentionally leaked: tests and benches may run GEMMs from static-teardown
/// contexts, and joining workers in a static destructor would race them.
/// Sized to the hardware minus the dispatching caller, which always executes
/// slab 0 itself.
util::ThreadPool& SlabPool() {
  static util::ThreadPool* pool = []() {
    const unsigned hw = std::thread::hardware_concurrency();
    return new util::ThreadPool(std::max<int64_t>(1, static_cast<int64_t>(hw) - 1));
  }();
  return *pool;
}

/// Per-dispatch countdown latch.  ThreadPool::Wait() waits for the WHOLE
/// queue to drain, which would make concurrent dispatchers (e.g. two serving
/// threads) block on each other's slabs; counting down only our own tasks
/// keeps dispatches independent.
class SlabLatch {
 public:
  explicit SlabLatch(int64_t count) : remaining_(count) {}

  void CountDown() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t remaining_;
};

bool ShouldShard(int64_t m, int64_t k, int64_t n, int64_t min_slab_rows) {
  if (ParallelismBudget::current() <= 1) return false;
  if (m < 2 * min_slab_rows) return false;
  return m * k * n >= kFlopThreshold;
}

/// Partitions [0, m) into contiguous row slabs (sizes differing by at most
/// one row) and runs `slab(row0, rows)` once per slab, each on exactly one
/// thread.  The caller runs slab 0 inline; the rest go to the shared pool.
/// The partition cannot affect results: each output element keeps its own
/// single ascending-k accumulator no matter which slab computes it.
template <typename SlabFn>
void ShardRows(int64_t m, int64_t min_slab_rows, const SlabFn& slab) {
  const int64_t budget = ParallelismBudget::current();
  const int64_t slabs = std::min(budget, m / min_slab_rows);
  const int64_t base = m / slabs;
  const int64_t extra = m % slabs;
  SlabLatch latch(slabs - 1);
  int64_t row0 = base + (extra > 0 ? 1 : 0);  // slab 0, run by the caller
  for (int64_t s = 1; s < slabs; ++s) {
    const int64_t rows = base + (s < extra ? 1 : 0);
    const int64_t begin = row0;
    SlabPool().Submit([&slab, &latch, begin, rows] {
      slab(begin, rows);
      latch.CountDown();
    });
    row0 += rows;
  }
  slab(0, base + (extra > 0 ? 1 : 0));
  latch.Wait();
}

/// Runs `slab` over all of [0, m) on the calling thread, or through
/// ShardRows when the multiply is worth sharding.
template <typename SlabFn>
void RunRows(int64_t m, int64_t k, int64_t n, const kernel::GemmTile& tile,
             const SlabFn& slab) {
  // Minimum C rows per slab: two full register blocks of the tile that runs
  // the multiply, so sharding never degrades a slab into all-remainder row
  // blocks.
  const int64_t min_slab_rows = 2 * tile.rows;
  if (ShouldShard(m, k, n, min_slab_rows)) {
    ShardRows(m, min_slab_rows, slab);
  } else {
    slab(0, m);
  }
}

}  // namespace

ParallelismBudget::ParallelismBudget(int64_t threads) {
  const int64_t prev = g_budget;
  g_budget = std::max<int64_t>(1, threads);
  prev_ = prev;
}

ParallelismBudget::~ParallelismBudget() { g_budget = prev_; }

int64_t ParallelismBudget::current() {
  return g_budget > 0 ? g_budget : DefaultBudget();
}

namespace kernel {

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, const GemmTile& tile) {
  RunRows(m, k, n, tile, [=, &tile](int64_t row0, int64_t rows) {
    MatMulBlocked(a + row0 * k, b, c + row0 * n, rows, k, n, tile);
  });
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, const GemmTile& tile) {
  // At m = 1 nothing is packed: c[1, n]ᵀ = b[n, k]·a[k], and b's rows shard
  // like any NN's.
  if (m == 1) {
    GemmNN(b, a, c, n, k, 1, tile);
    return;
  }
  // Pack bᵀ once on the dispatching thread; GemmNN's slabs read it
  // concurrently (publication ordered by the pool's queue mutex, lifetime by
  // the latch).
  float* bt = TransposeScratch(k * n);
  PackTranspose(b, bt, n, k);
  GemmNN(a, bt, c, m, k, n, tile);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, const GemmTile& tile) {
  // A slab's C rows are a column block of `a`: offset into the row, keep the
  // full row stride.
  RunRows(m, k, n, tile, [=, &tile](int64_t row0, int64_t rows) {
    MatMulTN(a + row0, b, c + row0 * n, rows, k, n, /*lda=*/m, tile);
  });
}

}  // namespace kernel
}  // namespace fewner::tensor
