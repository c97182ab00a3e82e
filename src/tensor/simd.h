// Vectorization hint for an inner loop whose iterations are independent.
//
// Ordered weakest-assumption first: `omp simd` when the build enables it
// (-fopenmp-simd, no runtime), otherwise a compiler-specific no-dependence
// pragma.  None of these permit reassociation — no reduction clause is ever
// given — so a hinted loop computes each element with the same IEEE
// operations, in the same order, as the unhinted loop.  The GEMM tiles'
// ascending-k contract (matmul_kernel.h) and the elementwise loops' bitwise
// contract (ops.cc) both depend on that.

#pragma once

#if defined(FEWNER_HAVE_OMP_SIMD)
#define FEWNER_SIMD _Pragma("omp simd")
#elif defined(__clang__)
#define FEWNER_SIMD _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define FEWNER_SIMD _Pragma("GCC ivdep")
#else
#define FEWNER_SIMD
#endif
