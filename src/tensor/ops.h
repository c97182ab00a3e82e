// Differentiable tensor operations.
//
// Every op builds a graph node whose backward function is written in terms of
// these same ops, so calling autodiff::Grad with create_graph=true produces
// gradients that can be differentiated again (higher-order autodiff).  The only
// places where a derivative is intentionally treated as locally constant are
// piecewise-linear kink points (Relu masks, argmax selections) and the detached
// max-shift inside LogSumExp — all standard and exact almost everywhere.
//
// Elementwise binary ops broadcast with NumPy right-aligned rules.

#pragma once

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace fewner::tensor {

// ----- elementwise binary (broadcasting) -----

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// ----- elementwise unary -----

Tensor Neg(const Tensor& t);
Tensor Sigmoid(const Tensor& t);
Tensor Tanh(const Tensor& t);
Tensor Relu(const Tensor& t);
Tensor Exp(const Tensor& t);
Tensor Log(const Tensor& t);   ///< Natural log; inputs must be positive.
Tensor Sqrt(const Tensor& t);  ///< Inputs must be non-negative.
Tensor Square(const Tensor& t);

// ----- scalar forms (cheaper than materializing constant tensors) -----

Tensor AddScalar(const Tensor& t, float c);
Tensor MulScalar(const Tensor& t, float c);

// ----- shape manipulation -----

/// Reinterprets the data with a new shape of identical numel.
Tensor Reshape(const Tensor& t, Shape shape);

/// 2-D transpose.
Tensor Transpose(const Tensor& t);

/// Replicates to `shape`; `t.shape()` must be broadcastable to it.
Tensor BroadcastTo(const Tensor& t, Shape shape);

/// Reduces by summation down to `shape` (the adjoint of BroadcastTo).
Tensor SumTo(const Tensor& t, Shape shape);

/// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis);

/// Contiguous slice [start, start+length) along `axis`.
Tensor Slice(const Tensor& t, int64_t axis, int64_t start, int64_t length);

// ----- reductions -----

/// Sum of all elements as a rank-0 scalar.
Tensor SumAll(const Tensor& t);

/// Sum of all elements as a rank-0 scalar, accumulated in SINGLE precision
/// left-to-right over the flat elements — bitwise-identical to folding the
/// elements with a chain of scalar float Adds.  Use when a serial Add fold
/// must be reproduced exactly (batched task losses); prefer SumAll (double
/// accumulation) everywhere else.
Tensor SumAllFloat(const Tensor& t);

/// Sum along one axis; keepdim retains the axis with size 1.
Tensor SumAxis(const Tensor& t, int64_t axis, bool keepdim);

/// Per-row sum of an [R, C] matrix as a rank-1 [R] tensor.  Each row
/// accumulates in double precision in ascending column order — the same
/// summation SumAll performs over a whole tensor — so lane r of a padded
/// batch reproduces SumAll over that lane's rows bitwise (trailing zero pad
/// contributions are exact no-ops in double).
Tensor RowSum(const Tensor& t);

/// Max along one axis (keepdim semantics as SumAxis).  The sub-gradient flows
/// to the (first) argmax position.
Tensor MaxAxis(const Tensor& t, int64_t axis, bool keepdim);

// ----- linear algebra -----

/// [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// [m, k] x [n, k]ᵀ -> [m, n]: MatMul(a, Transpose(b)) without the
/// materialized transpose node or copy, bitwise-identical to that
/// composition.  The MatMul family {MatMul, MatMulNT, MatMulTN} is closed
/// under differentiation, so higher-order autodiff stays transpose-free too.
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// [k, m]ᵀ x [k, n] -> [m, n]: MatMul(Transpose(a), b) without the
/// materialized transpose node or copy, bitwise-identical to that
/// composition.
Tensor MatMulTN(const Tensor& a, const Tensor& b);

// ----- gather / scatter -----

/// Selects rows of a [V, D] matrix: result[i, :] = t[indices[i], :].
Tensor IndexSelectRows(const Tensor& t, const std::vector<int64_t>& indices);

/// Adjoint of IndexSelectRows: scatter-adds the rows of `src` ([n, D]) into a
/// zero [num_rows, D] matrix at `indices`.
Tensor ScatterAddRows(const Tensor& src, const std::vector<int64_t>& indices,
                      int64_t num_rows);

/// Sliding windows for 1-D convolution, per lane: [N, T, D] -> [N, T-w+1, w*D],
/// window i of lane n being the concatenation of that lane's rows i..i+w-1.
/// Requires T >= w.
Tensor UnfoldTimeBatch(const Tensor& t, int64_t window);

/// Adjoint of UnfoldTimeBatch: overlap-adds [N, M, w*D] back into
/// [N, M+w-1, D] per lane.
Tensor FoldTimeBatch(const Tensor& t, int64_t window);

/// Elementwise select: result[i] = cond[i] != 0 ? a[i] : b[i].  `cond` is
/// treated as a constant (no gradient) and must be broadcastable to the
/// common shape of `a` and `b` (which must match).  Unlike the arithmetic
/// blend cond*a + (1-cond)*b, this *copies* the selected operand, so masked
/// lanes in a batched recurrence carry state through bitwise-unchanged
/// (an arithmetic blend would flip -0.0 to +0.0 and is one more rounding).
Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b);

/// The carry of a ragged batch's finished lanes at step t of a recurrence,
/// the one place the rule "lane b is live at step t iff t < lengths[b]"
/// becomes a mask.  Each state next[i] (a [B, D_i] step result, with prev[i]
/// the state before the step) becomes Where(m_t, next[i], prev[i]), in list
/// order, with m_t the one [B, 1] 0/1 live mask they share, so a finished
/// lane copies prev[i] bit for bit.  On a step where every lane is live it
/// returns `next` itself and builds no mask and no node.  `lengths` must
/// have B entries, each in [0, max_len], and t must be in [0, max_len).
std::vector<Tensor> CarryFinishedLanes(std::vector<Tensor> next,
                                       const std::vector<Tensor>& prev,
                                       const std::vector<int64_t>& lengths, int64_t max_len,
                                       int64_t t);

// ----- fused ops -----

/// A fused op's first-order backward kernel: given the op's inputs and the
/// upstream grad, the grads of the inputs `needs` asks for (see FusedOp).
using FusedBackwardFn = std::function<std::vector<Tensor>(
    const std::vector<Tensor>& inputs, const Tensor& grad, const NeedsGrad& needs)>;

/// The composite of tensor ops that defines a fused op, built over its inputs.
using CompositeFn = std::function<Tensor(const std::vector<Tensor>& inputs)>;

/// One fused layer: a composite of the ops above, its definition, run as one
/// op through kernels that live outside ops.cc (the CRF's log-partition, see
/// crf::LinearChainCrf; the GRU recurrence, see nn::GruCell).  The caller
/// gives three things:
///   - `forward` writes the shape.numel() output floats into a buffer
///     allocated like every op output (eval mode recycles an arena buffer, so
///     it holds stale values).  `tape` is true when `first_order` may run
///     later, so the kernel keeps what it reads.  It runs once, before
///     FusedOp returns, and not for an empty shape.
///   - `first_order` reproduces the composite's eval-mode backward bit for
///     bit.  It may fold grads through autodiff::FoldInputGrad instead of
///     returning them.
///   - `composite`, the definition.
/// FusedOp does the rest.  Without a graph (eval mode, or no input requires
/// grad) the op is one plain node.  In graph mode it is a kernel node
/// (`kernel_name`, edges `inputs`) under a visible node (`name`) that passes
/// its grad through.  The kernel node's backward picks a branch with
/// EvalMode::active(), which autodiff::Grad sets exactly when create_graph is
/// false:
///   - first order: `first_order`;
///   - create_graph: `composite` is rebuilt over the op's inputs and
///     differentiated with autodiff::GradContributions, seeded with the
///     upstream grad, so higher orders see the composite.  Input 0 (the
///     per-step activations) gets its contributions left-folded with Add and
///     returned.  Every other input's are folded one by one through
///     autodiff::FoldInputGrad, so a tensor the composite reads once per step
///     folds into an accumulator shared with other consumers in the
///     composite's order.  An input the composite does not reach gets zeros.
///     Then the visible node is re-pointed at the composite, so a later Grad
///     through both the forward and these grads (a second-order
///     meta-gradient) folds every path inside one graph, as the composite
///     does.
/// The re-pointed visible node folds its consumers' grads before passing
/// them on, so the composite's output node must be one its own backward never
/// reads (a Reshape or Concat, as both ops' composites end), or a later Grad
/// folds differently than the composite would.  Inputs must be distinct.
/// `name` and `kernel_name` must outlive the nodes (string literals).
Tensor FusedOp(const char* name, const char* kernel_name, Shape shape,
               std::vector<Tensor> inputs,
               const std::function<void(float* out, bool tape)>& forward,
               FusedBackwardFn first_order, CompositeFn composite);

// ----- composites -----

/// Numerically stable log(sum(exp(x))) along the last axis, keepdim.
Tensor LogSumExpLastDim(const Tensor& t);

/// Log-softmax along the last axis.
Tensor LogSoftmaxLastDim(const Tensor& t);

/// Softmax along the last axis.
Tensor SoftmaxLastDim(const Tensor& t);

}  // namespace fewner::tensor
