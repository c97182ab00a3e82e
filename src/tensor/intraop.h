// Deterministic intra-op parallelism for the GEMM layer.
//
// The Gemm* entry points front the matmul kernels with a row-sharded parallel
// dispatch: C's rows are partitioned into disjoint contiguous slabs, each
// computed by exactly one thread running the ordinary serial kernel over its
// range.  Because every output element is owned by a single slab and the
// kernels accumulate each element on a single ascending-k chain (see
// matmul_kernel.h), the result is bitwise-identical for ANY thread count,
// including 1 — the partition changes which thread runs a given element's
// loop, never the loop itself.  There is no reduction and no shared write:
// determinism falls out of disjoint ownership, not of synchronization order.
//
// Small GEMMs stay serial: dispatch costs a queue round-trip per slab, so a
// multiply is only sharded when its flop volume (m·k·n) clears a threshold
// and there are enough rows for at least two full slabs.
//
// The slab budget is the scoped, thread-local ParallelismBudget.  Its default
// comes from FEWNER_INTRAOP_THREADS (unset -> 1, "0" -> all hardware
// threads, same grammar as FEWNER_THREADS).  Nesting with the episode-level
// parallelism of meta::ParallelMetaBatch (DESIGN.md §5) is arbitrated by
// scope: meta-batch workers run their tasks under ParallelismBudget(1), so
// during training the coarse episode grain owns the cores; at adaptation /
// serving time — the single-task path the paper's timing analysis cares
// about — no worker scope is active and the full budget applies.  Slabs run
// on a shared, lazily created pool that is independent of the episode pool,
// and each dispatch waits on its own latch, so concurrent servers can
// dispatch in parallel without blocking on each other's slabs.

#pragma once

#include <cstdint>

#include "tensor/matmul_kernel.h"

namespace fewner::tensor {

/// RAII scope setting the calling thread's intra-op slab budget.  Budgets
/// clamp to >= 1; the previous scope (or the FEWNER_INTRAOP_THREADS default)
/// is restored on destruction.  Thread-local: a scope on one thread never
/// affects GEMMs issued by another.
class ParallelismBudget {
 public:
  explicit ParallelismBudget(int64_t threads);
  ~ParallelismBudget();

  ParallelismBudget(const ParallelismBudget&) = delete;
  ParallelismBudget& operator=(const ParallelismBudget&) = delete;

  /// The budget in effect on the calling thread: the innermost live scope,
  /// else the FEWNER_INTRAOP_THREADS default.
  static int64_t current();

 private:
  int64_t prev_;  ///< enclosing scope's raw budget, restored on destruction
};

namespace kernel {

// Each entry point runs `tile` (matmul_kernel.h); slabs are at least two of
// its register blocks tall.

/// c[m, n] = a[m, k] * b[k, n] — MatMulBlocked, row-sharded when profitable.
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, const GemmTile& tile = ActiveTile());

/// c[m, n] = a[m, k] * b[n, k]ᵀ, the one NT entry: bᵀ is packed once by the
/// caller and the blocked core is sharded over the pack.  At
/// m = 1 nothing is packed: c[1, n]ᵀ = b·aᵀ runs as GemmNN over b's rows.
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, const GemmTile& tile = ActiveTile());

/// c[m, n] = a[k, m]ᵀ * b[k, n] — MatMulTN; slabs address a column block of
/// `a` via its leading dimension, so no copy is made in either mode.
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, const GemmTile& tile = ActiveTile());

}  // namespace kernel
}  // namespace fewner::tensor
