#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/intraop.h"
#include "tensor/matmul_kernel.h"
#include "tensor/simd.h"

namespace fewner::tensor {

namespace {

// Every op is split into the same three phases:
//   1. NewOutput()  — obtain the output node + buffer; the one place any op
//      output is allocated.  Graph mode allocates a fresh node; eval mode
//      recycles one from the thread's WorkspaceArena.  NewView() is the
//      one exception: Reshape and FusedOp's pass-through node read their
//      source's buffer instead of copying it.
//   2. the numeric kernel — identical code in both modes, writing through the
//      raw buffer pointer, which is what makes eval outputs bitwise-equal to
//      graph outputs (tests/eval_mode_test.cc pins this at 0 ULP).  MatMul,
//      MatMulNT and MatMulTN share one body that picks the layout's GEMM.
//   3. SealEval()/SealGraph() — eval mode returns the bare value; graph mode
//      wires input edges and the backward closure.  Backward closures are
//      built by *factories* invoked only in graph mode, so eval mode never
//      pays for their captures or the std::function allocation.  Grad hands
//      each closure a NeedsGrad mask, and a closure builds only the input
//      grads the mask asks for.
// FusedOp runs phases 1 and 3 around a kernel that lives outside this file
// (the CRF's fused log-partition, the GRU recurrence) and owns its backward.
//
// Elementwise kernels take their scalar operation as a functor template
// parameter, so each op compiles to one element loop with the operation
// inlined.  A broadcast operand that is one block repeated inside the result
// ([outer, 1, inner] against [outer, mid, inner], see Repeats) runs as plain
// row loops: the trailing layout (the bias-add [L, D] + [D], FiLM's
// [rows, D] ⊙ [1, D]), the per-row scalar ([B, Y, 1] against [B, Y, Y]) and
// the middle broadcast ([B, 1, Y] against [B, Y, Y]); so do SumTo, BroadcastTo
// and Where's mask between such shapes.  Other layouts (e.g. [1, Y, 1]
// against [B, Y, Y]) walk the BroadcastIndexer odometer.  The loops are bitwise
// equal to a per-element walk: every output element gets its one IEEE
// operation on the same operands in the same order, and SumTo adds each
// output's terms onto its +0 start in ascending flat order.  The inner loops
// carry FEWNER_SIMD (tensor/simd.h), which vectorizes across independent
// elements and never reassociates.  This file is built for the baseline
// target, which has no FMA, so no multiply and add can fuse; if it is ever
// built for an FMA target, it needs -ffp-contract=off like the GEMM kernel
// files (src/tensor/CMakeLists.txt).

/// Handle to an op's output node and its destination buffer.
struct OpOutput {
  std::shared_ptr<internal::Node> node;
  float* data() { return node->values.data(); }
};

/// memcpy of n floats that does nothing for n == 0: the buffer of an empty
/// tensor may have a null data(), which memcpy must never be handed.
void CopyFloats(float* dst, const float* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

/// Output for an op result, shaped `shape` — with dimension `patch_axis` set
/// to `patch_dim` when patch_axis >= 0, so Slice/MaxAxis derive their output
/// shape from the input's without building a temporary dims vector.  Recycled
/// buffers hold stale values: ops that accumulate (rather than overwrite every
/// element) pass zero=true.  A recycled node copy-assigns the shape, reusing
/// its dims capacity, so steady-state eval traffic allocates nothing here; a
/// fresh graph node takes a temporary shape by move.
template <typename ShapeRef>
OpOutput NewOutput(const char* op, ShapeRef&& shape, bool zero = false,
                   int64_t patch_axis = -1, int64_t patch_dim = 0) {
  std::shared_ptr<internal::Node> node;
  if (EvalMode::active()) {
    node = WorkspaceArena::ThreadLocal().Acquire();
    node->shape = shape;
  } else {
    node = std::make_shared<internal::Node>();
    node->shape = std::forward<ShapeRef>(shape);
  }
  if (patch_axis >= 0) node->shape.set_dim(patch_axis, patch_dim);
  node->op = op;
  node->leaf = false;
  node->values.resize(static_cast<size_t>(node->shape.numel()));
  if (zero) std::fill(node->values.begin(), node->values.end(), 0.0f);
  return {std::move(node)};
}

/// Output for an op whose values are `source`'s, shaped `shape`: a fresh
/// node viewing the buffer that `source.shared_storage()` names, with no
/// allocation, zero fill or copy.  Not an arena node, so the view lets go of
/// that buffer as soon as its last handle drops.  A leaf source (null
/// storage) gets a NewOutput copy, since leaves change in place.
OpOutput NewView(const char* op, Shape shape, const Tensor& source) {
  std::shared_ptr<internal::Node> storage = source.shared_storage();
  if (!storage) {
    OpOutput out = NewOutput(op, std::move(shape));
    CopyFloats(out.data(), source.data().data(), source.numel());
    return out;
  }
  auto node = std::make_shared<internal::Node>();
  node->shape = std::move(shape);
  node->op = op;
  node->leaf = false;
  node->viewed = std::move(storage);
  return {std::move(node)};
}

/// Eval mode: the output is a plain value — no edges, no backward, no grad.
Tensor SealEval(OpOutput out) {
  return Tensor::FromRecycledNode(std::move(out.node));
}

/// Graph mode: requires_grad is inherited from any input.
Tensor SealGraph(OpOutput out, std::vector<Tensor> inputs, BackwardFn backward) {
  bool rg = false;
  for (const Tensor& in : inputs) rg = rg || in.requires_grad();
  out.node->requires_grad = rg;
  out.node->inputs = std::move(inputs);
  if (rg) out.node->backward = std::move(backward);
  return Tensor::FromNode(std::move(out.node));
}

/// Maps a flat index in `out_shape` to a flat index in `in_shape`
/// (right-aligned broadcasting; size-1 dims in the input are pinned to 0).
struct BroadcastIndexer {
  explicit BroadcastIndexer(const Shape& in_shape, const Shape& out_shape) {
    const int64_t out_rank = out_shape.rank();
    const int64_t offset = out_rank - in_shape.rank();
    out_dims = out_shape.dims();
    in_strides.assign(static_cast<size_t>(out_rank), 0);
    std::vector<int64_t> strides = in_shape.Strides();
    for (int64_t i = 0; i < in_shape.rank(); ++i) {
      if (in_shape.dim(i) != 1) {
        in_strides[static_cast<size_t>(i + offset)] = strides[static_cast<size_t>(i)];
      }
    }
    coords_.assign(static_cast<size_t>(out_rank), 0);
  }

  /// Returns the input flat index of the k-th output element on the k-th
  /// call (k = 0, 1, ...), advancing an odometer over the output coordinates
  /// one element per call: amortized O(1), no per-element div/mod.
  int64_t Next() {
    const int64_t result = cur_;
    for (int64_t i = static_cast<int64_t>(out_dims.size()) - 1; i >= 0; --i) {
      const size_t ui = static_cast<size_t>(i);
      cur_ += in_strides[ui];
      if (++coords_[ui] < out_dims[ui]) return result;
      coords_[ui] = 0;
      cur_ -= in_strides[ui] * out_dims[ui];
    }
    return result;  // wrapped past the last element; callers stop before this
  }

  std::vector<int64_t> out_dims;
  std::vector<int64_t> in_strides;

 private:
  std::vector<int64_t> coords_;  // sized in the constructor, after out_dims
  int64_t cur_ = 0;
};

/// How `small` repeats inside `big` when it broadcasts to big's shape as one
/// block: small is [outer, 1, inner] and big [outer, mid, inner] once their
/// dims are grouped, so each of small's `outer` runs of `inner` values is read
/// by `mid` consecutive runs of big.  Outer 1 is the trailing layout, inner 1
/// the per-row scalar, mid 1 the same shape.
struct Repeat {
  int64_t outer = 1, mid = 1, inner = 1;
};

/// `small`'s Repeat inside `big`, or nullopt when broadcasting it does not
/// give big's shape ([1, 1, Y] against [Y, Y] gives [1, Y, Y]) or it
/// repeats in more than one block ([1, Y, 1] against [B, Y, Y]).
std::optional<Repeat> Repeats(const Shape& small, const Shape& big) {
  const int64_t offset = big.rank() - small.rank();
  if (offset < 0) return std::nullopt;
  Repeat r;
  int64_t* group = &r.inner;  // inner, then mid, then outer, from the right
  for (int64_t i = big.rank() - 1; i >= 0; --i) {
    const int64_t b = big.dim(i);
    const int64_t s = i >= offset ? small.dim(i - offset) : 1;
    if (s != b && s != 1) return std::nullopt;
    if (b == 1) continue;  // a size-1 dim fits any group
    if (s == 1 && group != &r.mid) {
      if (group == &r.outer) return std::nullopt;
      group = &r.mid;
    } else if (s == b && group == &r.mid) {
      group = &r.outer;
    }
    *group *= b;
  }
  return r;
}

/// A walk over an operand laid out as `Repeat` inside the result, `step`
/// result elements at a time (step divides inner): index() is the operand's
/// flat index of the current step's first element.
class RepeatCursor {
 public:
  explicit RepeatCursor(const Repeat& r) : r_(r) {}
  int64_t index() const { return base_ + offset_; }
  void Advance(int64_t step) {
    offset_ += step;
    if (offset_ < r_.inner) return;
    offset_ = 0;
    if (++row_ < r_.mid) return;
    row_ = 0;
    base_ += r_.inner;
  }

 private:
  Repeat r_;
  int64_t base_ = 0;    ///< outer block * inner
  int64_t row_ = 0;     ///< repeat within the block, in [0, mid)
  int64_t offset_ = 0;  ///< position within the run, in [0, inner)
};

/// Shared implementation for broadcasting elementwise binary ops.  `f` is a
/// functor type, so each op's loops are compiled with its scalar operation
/// inlined.  The backward factory runs only in graph mode.
template <typename F, typename BackwardFactory>
Tensor ElementwiseBinary(const char* op, const Tensor& a, const Tensor& b, F f,
                         BackwardFactory make_backward) {
  FEWNER_CHECK(a.defined() && b.defined(), op << " on undefined tensor");
  const float* av = a.data().data();
  const float* bv = b.data().data();
  // The result is the shape of an operand the other repeats in, else the
  // broadcast of both; each operand is then read through its Repeat.
  std::optional<Repeat> ra, rb;
  const Shape* shape = &a.shape();
  Shape broadcast;
  if ((rb = Repeats(b.shape(), a.shape()))) {
    ra = Repeat{1, 1, a.numel()};
  } else if ((ra = Repeats(a.shape(), b.shape()))) {
    shape = &b.shape();
    rb = Repeat{1, 1, b.numel()};
  } else {
    auto result_shape = Shape::Broadcast(a.shape(), b.shape());
    FEWNER_CHECK(result_shape.ok(), op << ": " << result_shape.status().ToString());
    broadcast = std::move(result_shape).value();
    shape = &broadcast;
    ra = Repeats(a.shape(), broadcast);
    rb = Repeats(b.shape(), broadcast);
  }
  const int64_t n = shape->numel();
  OpOutput out = NewOutput(op, *shape);
  float* ov = out.data();
  if (ra && rb) {
    // Rows of `step` elements are contiguous in both operands.
    if (n > 0) {
      const int64_t step = std::min(ra->inner, rb->inner);
      RepeatCursor ca(*ra), cb(*rb);
      for (int64_t p = 0; p < n; p += step) {
        const float* ar = av + ca.index();
        const float* br = bv + cb.index();
        float* orow = ov + p;
        FEWNER_SIMD
        for (int64_t j = 0; j < step; ++j) orow[j] = f(ar[j], br[j]);
        ca.Advance(step);
        cb.Advance(step);
      }
    }
  } else {
    BroadcastIndexer ia(a.shape(), out.node->shape);
    BroadcastIndexer ib(b.shape(), out.node->shape);
    for (int64_t i = 0; i < n; ++i) ov[i] = f(av[ia.Next()], bv[ib.Next()]);
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {a, b}, make_backward());
}

/// Shared implementation for elementwise unary ops; `f` as ElementwiseBinary.
template <typename F, typename BackwardFactory>
Tensor ElementwiseUnary(const char* op, const Tensor& t, F f,
                        BackwardFactory make_backward) {
  FEWNER_CHECK(t.defined(), op << " on undefined tensor");
  const float* tv = t.data().data();
  const int64_t n = t.numel();
  OpOutput out = NewOutput(op, t.shape());
  float* ov = out.data();
  FEWNER_SIMD
  for (int64_t i = 0; i < n; ++i) ov[i] = f(tv[i]);
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {t}, make_backward());
}

}  // namespace

// ----- elementwise binary -----
//
// Each backward builds only the input grads Grad needs; an unneeded entry
// stays undefined.

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "add", a, b, [](float x, float y) { return x + y; },
      [&]() -> BackwardFn {
        Shape sa = a.shape(), sb = b.shape();
        return [sa, sb](const Tensor& /*self*/, const Tensor& grad,
                        const NeedsGrad& needs) -> std::vector<Tensor> {
          std::vector<Tensor> grads(2);
          if (needs[0]) grads[0] = SumTo(grad, sa);
          if (needs[1]) grads[1] = SumTo(grad, sb);
          return grads;
        };
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "sub", a, b, [](float x, float y) { return x - y; },
      [&]() -> BackwardFn {
        Shape sa = a.shape(), sb = b.shape();
        return [sa, sb](const Tensor& /*self*/, const Tensor& grad,
                        const NeedsGrad& needs) -> std::vector<Tensor> {
          std::vector<Tensor> grads(2);
          if (needs[0]) grads[0] = SumTo(grad, sa);
          if (needs[1]) grads[1] = SumTo(Neg(grad), sb);
          return grads;
        };
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "mul", a, b, [](float x, float y) { return x * y; },
      [&]() -> BackwardFn {
        Shape sa = a.shape(), sb = b.shape();
        return [a, b, sa, sb](const Tensor& /*self*/, const Tensor& grad,
                              const NeedsGrad& needs) -> std::vector<Tensor> {
          std::vector<Tensor> grads(2);
          if (needs[0]) grads[0] = SumTo(Mul(grad, b), sa);
          if (needs[1]) grads[1] = SumTo(Mul(grad, a), sb);
          return grads;
        };
      });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      "div", a, b, [](float x, float y) { return x / y; },
      [&]() -> BackwardFn {
        Shape sa = a.shape(), sb = b.shape();
        return [a, b, sa, sb](const Tensor& /*self*/, const Tensor& grad,
                              const NeedsGrad& needs) -> std::vector<Tensor> {
          std::vector<Tensor> grads(2);
          if (needs[0]) grads[0] = SumTo(Div(grad, b), sa);
          if (needs[1]) grads[1] = SumTo(Neg(Div(Mul(grad, a), Mul(b, b))), sb);
          return grads;
        };
      });
}

// ----- elementwise unary -----

Tensor Neg(const Tensor& t) {
  return ElementwiseUnary(
      "neg", t, [](float x) { return -x; },
      []() -> BackwardFn {
        return [](const Tensor&, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
          return {Neg(grad)};
        };
      });
}

Tensor Sigmoid(const Tensor& t) {
  return ElementwiseUnary(
      "sigmoid", t, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      []() -> BackwardFn {
        return [](const Tensor& self, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
          // d/dx sigmoid = y * (1 - y), with y the op output (still in-graph).
          Tensor one_minus = AddScalar(Neg(self), 1.0f);
          return {Mul(grad, Mul(self, one_minus))};
        };
      });
}

Tensor Tanh(const Tensor& t) {
  return ElementwiseUnary(
      "tanh", t, [](float x) { return std::tanh(x); },
      []() -> BackwardFn {
        return [](const Tensor& self, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
          return {Mul(grad, AddScalar(Neg(Mul(self, self)), 1.0f))};
        };
      });
}

Tensor Relu(const Tensor& t) {
  return ElementwiseUnary(
      "relu", t, [](float x) { return x > 0.0f ? x : 0.0f; },
      [&]() -> BackwardFn {
        // The 0/1 mask is a local constant of the input sign pattern; its own
        // derivative is zero a.e., so a constant tensor is the right backward
        // here even under create_graph.
        std::vector<float> mask(t.data().size());
        for (size_t i = 0; i < mask.size(); ++i) {
          mask[i] = t.data()[i] > 0.0f ? 1.0f : 0.0f;
        }
        Tensor mask_t = Tensor::FromData(t.shape(), std::move(mask));
        return [mask_t](const Tensor&, const Tensor& grad,
                        const NeedsGrad&) -> std::vector<Tensor> {
          return {Mul(grad, mask_t)};
        };
      });
}

Tensor Exp(const Tensor& t) {
  return ElementwiseUnary(
      "exp", t, [](float x) { return std::exp(x); },
      []() -> BackwardFn {
        return [](const Tensor& self, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
          return {Mul(grad, self)};
        };
      });
}

Tensor Log(const Tensor& t) {
  return ElementwiseUnary(
      "log", t, [](float x) { return std::log(x); },
      [&]() -> BackwardFn {
        return [t](const Tensor&, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
          return {Div(grad, t)};
        };
      });
}

Tensor Sqrt(const Tensor& t) {
  return ElementwiseUnary(
      "sqrt", t, [](float x) { return std::sqrt(x); },
      []() -> BackwardFn {
        return [](const Tensor& self, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
          return {Div(MulScalar(grad, 0.5f), self)};
        };
      });
}

Tensor Square(const Tensor& t) { return Mul(t, t); }

// ----- scalar forms -----

Tensor AddScalar(const Tensor& t, float c) {
  FEWNER_CHECK(t.defined(), "add_scalar on undefined tensor");
  const auto& tv = t.data();
  OpOutput out = NewOutput("add_scalar", t.shape());
  float* ov = out.data();
  FEWNER_SIMD
  for (size_t i = 0; i < tv.size(); ++i) ov[i] = tv[i] + c;
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {t},
                   [](const Tensor&, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
                     return {grad};
                   });
}

Tensor MulScalar(const Tensor& t, float c) {
  FEWNER_CHECK(t.defined(), "mul_scalar on undefined tensor");
  const auto& tv = t.data();
  OpOutput out = NewOutput("mul_scalar", t.shape());
  float* ov = out.data();
  FEWNER_SIMD
  for (size_t i = 0; i < tv.size(); ++i) ov[i] = tv[i] * c;
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {t},
                   [c](const Tensor&, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
                     return {MulScalar(grad, c)};
                   });
}

// ----- shape manipulation -----

Tensor Reshape(const Tensor& t, Shape shape) {
  FEWNER_CHECK(shape.numel() == t.numel(), "Reshape " << t.shape().ToString() << " -> "
                                                      << shape.ToString());
  OpOutput out = NewView("reshape", std::move(shape), t);
  if (EvalMode::active()) return SealEval(std::move(out));
  Shape original = t.shape();
  return SealGraph(std::move(out), {t},
                   [original](const Tensor&, const Tensor& grad,
                              const NeedsGrad&) -> std::vector<Tensor> {
                     return {Reshape(grad, original)};
                   });
}

Tensor Transpose(const Tensor& t) {
  FEWNER_CHECK(t.rank() == 2, "Transpose requires rank 2, got " << t.shape().ToString());
  const int64_t m = t.shape().dim(0);
  const int64_t n = t.shape().dim(1);
  OpOutput out = NewOutput("transpose", Shape{n, m});
  float* ov = out.data();
  const float* tv = t.data().data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      ov[j * m + i] = tv[i * n + j];
    }
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {t},
                   [](const Tensor&, const Tensor& grad, const NeedsGrad&) -> std::vector<Tensor> {
                     return {Transpose(grad)};
                   });
}

Tensor BroadcastTo(const Tensor& t, Shape shape) {
  if (t.shape() == shape) return t;
  FEWNER_CHECK(t.shape().BroadcastableTo(shape),
               "BroadcastTo " << t.shape().ToString() << " -> " << shape.ToString());
  OpOutput out = NewOutput("broadcast_to", std::move(shape));
  const Shape& out_shape = out.node->shape;
  const int64_t n = out_shape.numel();
  float* ov = out.data();
  const float* tv = t.data().data();
  if (const std::optional<Repeat> r = Repeats(t.shape(), out_shape)) {
    // Output run (o, m) is a copy of t's run o.
    for (int64_t o = 0; o < r->outer; ++o) {
      const float* src = tv + o * r->inner;
      float* dst = ov + o * r->mid * r->inner;
      if (r->inner == 1) {
        std::fill_n(dst, r->mid, *src);
      } else {
        for (int64_t m = 0; m < r->mid; ++m) CopyFloats(dst + m * r->inner, src, r->inner);
      }
    }
  } else {
    BroadcastIndexer indexer(t.shape(), out_shape);
    for (int64_t i = 0; i < n; ++i) ov[i] = tv[indexer.Next()];
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  Shape in_shape = t.shape();
  return SealGraph(std::move(out), {t},
                   [in_shape](const Tensor&, const Tensor& grad,
                              const NeedsGrad&) -> std::vector<Tensor> {
                     return {SumTo(grad, in_shape)};
                   });
}

Tensor SumTo(const Tensor& t, Shape shape) {
  if (t.shape() == shape) return t;
  FEWNER_CHECK(shape.BroadcastableTo(t.shape()),
               "SumTo " << t.shape().ToString() << " -> " << shape.ToString());
  OpOutput out = NewOutput("sum_to", std::move(shape), /*zero=*/true);
  const Shape& out_shape = out.node->shape;
  const int64_t n = t.numel();
  float* ov = out.data();
  const float* tv = t.data().data();
  if (const std::optional<Repeat> r = Repeats(out_shape, t.shape())) {
    // t's runs (o, m), m ascending, add onto output run o: each output gets
    // its terms in ascending flat order, as the odometer walk adds them.
    for (int64_t o = 0; o < r->outer; ++o) {
      float* orow = ov + o * r->inner;
      for (int64_t m = 0; m < r->mid; ++m) {
        const float* trow = tv + (o * r->mid + m) * r->inner;
        FEWNER_SIMD
        for (int64_t j = 0; j < r->inner; ++j) orow[j] += trow[j];
      }
    }
  } else {
    BroadcastIndexer indexer(out_shape, t.shape());
    for (int64_t i = 0; i < n; ++i) ov[indexer.Next()] += tv[i];
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  Shape in_shape = t.shape();
  return SealGraph(std::move(out), {t},
                   [in_shape](const Tensor&, const Tensor& grad,
                              const NeedsGrad&) -> std::vector<Tensor> {
                     return {BroadcastTo(grad, in_shape)};
                   });
}

Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis) {
  FEWNER_CHECK(!tensors.empty(), "Concat of zero tensors");
  if (tensors.size() == 1) return tensors[0];
  const Shape& first = tensors[0].shape();
  FEWNER_CHECK(axis >= 0 && axis < first.rank(),
               "Concat axis " << axis << " out of range for " << first.ToString());
  int64_t axis_total = 0;
  for (const Tensor& t : tensors) {
    FEWNER_CHECK(t.rank() == first.rank(), "Concat rank mismatch");
    for (int64_t d = 0; d < first.rank(); ++d) {
      if (d != axis) {
        FEWNER_CHECK(t.shape().dim(d) == first.dim(d),
                     "Concat dim mismatch at axis " << d);
      }
    }
    axis_total += t.shape().dim(axis);
  }
  std::vector<int64_t> out_dims = first.dims();
  out_dims[static_cast<size_t>(axis)] = axis_total;
  Shape out_shape{std::vector<int64_t>(out_dims)};

  // outer = product of dims before axis; inner = product after axis.
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= first.dim(d);
  for (int64_t d = axis + 1; d < first.rank(); ++d) inner *= first.dim(d);

  OpOutput out = NewOutput("concat", std::move(out_shape));
  float* ov = out.data();
  int64_t offset = 0;  // running position along the concat axis
  for (const Tensor& t : tensors) {
    const int64_t ta = t.shape().dim(axis);
    const float* tv = t.data().data();
    for (int64_t o = 0; o < outer; ++o) {
      CopyFloats(ov + (o * axis_total + offset) * inner, tv + o * ta * inner,
                 ta * inner);
    }
    offset += ta;
  }
  if (EvalMode::active()) return SealEval(std::move(out));

  std::vector<int64_t> sizes;
  sizes.reserve(tensors.size());
  for (const Tensor& t : tensors) sizes.push_back(t.shape().dim(axis));
  return SealGraph(std::move(out), tensors,
                   [axis, sizes](const Tensor&, const Tensor& grad,
                                 const NeedsGrad& needs) -> std::vector<Tensor> {
                     std::vector<Tensor> grads(sizes.size());
                     int64_t start = 0;
                     for (size_t i = 0; i < sizes.size(); ++i) {
                       if (needs[i]) grads[i] = Slice(grad, axis, start, sizes[i]);
                       start += sizes[i];
                     }
                     return grads;
                   });
}

Tensor Slice(const Tensor& t, int64_t axis, int64_t start, int64_t length) {
  const Shape& shape = t.shape();
  FEWNER_CHECK(axis >= 0 && axis < shape.rank(), "Slice axis out of range");
  FEWNER_CHECK(start >= 0 && length >= 0 && start + length <= shape.dim(axis),
               "Slice [" << start << ", " << start + length << ") out of range for dim "
                         << shape.dim(axis));
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= shape.dim(d);
  for (int64_t d = axis + 1; d < shape.rank(); ++d) inner *= shape.dim(d);
  const int64_t axis_size = shape.dim(axis);

  OpOutput out = NewOutput("slice", shape, /*zero=*/false, axis, length);
  float* ov = out.data();
  const float* tv = t.data().data();
  for (int64_t o = 0; o < outer; ++o) {
    CopyFloats(ov + o * length * inner, tv + (o * axis_size + start) * inner,
               length * inner);
  }
  if (EvalMode::active()) return SealEval(std::move(out));

  // Backward pads the gradient back to the input extent with zero blocks; the
  // zero constants carry no higher-order terms, which is exact for slicing.
  std::vector<int64_t> before_dims = shape.dims();
  before_dims[static_cast<size_t>(axis)] = start;
  std::vector<int64_t> after_dims = shape.dims();
  after_dims[static_cast<size_t>(axis)] = axis_size - start - length;
  Shape before_shape{std::vector<int64_t>(before_dims)};
  Shape after_shape{std::vector<int64_t>(after_dims)};
  return SealGraph(
      std::move(out), {t},
      [axis, before_shape, after_shape](const Tensor&,
                                        const Tensor& grad,
                                        const NeedsGrad&) -> std::vector<Tensor> {
        std::vector<Tensor> pieces;
        if (before_shape.dim(axis) > 0) pieces.push_back(Tensor::Zeros(before_shape));
        pieces.push_back(grad);
        if (after_shape.dim(axis) > 0) pieces.push_back(Tensor::Zeros(after_shape));
        return {Concat(pieces, axis)};
      });
}

// ----- reductions -----

Tensor SumAll(const Tensor& t) {
  double total = 0.0;
  for (float v : t.data()) total += v;
  OpOutput out = NewOutput("sum_all", Shape{});
  out.data()[0] = static_cast<float>(total);
  if (EvalMode::active()) return SealEval(std::move(out));
  Shape in_shape = t.shape();
  return SealGraph(std::move(out), {t},
                   [in_shape](const Tensor&, const Tensor& grad,
                              const NeedsGrad&) -> std::vector<Tensor> {
                     return {BroadcastTo(grad, in_shape)};
                   });
}

Tensor SumAllFloat(const Tensor& t) {
  const auto& tv = t.data();
  FEWNER_CHECK(!tv.empty(), "SumAllFloat on empty tensor");
  // Seed from the first element, not 0.0f: the fold being reproduced starts
  // at its first term, and 0.0f + x is not an identity for x == -0.0f.
  float total = tv[0];
  for (size_t i = 1; i < tv.size(); ++i) total += tv[i];
  OpOutput out = NewOutput("sum_all_float", Shape{});
  out.data()[0] = total;
  if (EvalMode::active()) return SealEval(std::move(out));
  Shape in_shape = t.shape();
  return SealGraph(std::move(out), {t},
                   [in_shape](const Tensor&, const Tensor& grad,
                              const NeedsGrad&) -> std::vector<Tensor> {
                     return {BroadcastTo(grad, in_shape)};
                   });
}

Tensor SumAxis(const Tensor& t, int64_t axis, bool keepdim) {
  const Shape& shape = t.shape();
  FEWNER_CHECK(axis >= 0 && axis < shape.rank(), "SumAxis axis out of range");
  std::vector<int64_t> keep_dims = shape.dims();
  keep_dims[static_cast<size_t>(axis)] = 1;
  Shape keep_shape{std::vector<int64_t>(keep_dims)};
  Tensor summed = SumTo(t, keep_shape);
  if (keepdim) return summed;
  std::vector<int64_t> out_dims;
  for (int64_t d = 0; d < shape.rank(); ++d) {
    if (d != axis) out_dims.push_back(shape.dim(d));
  }
  return Reshape(summed, Shape{std::move(out_dims)});
}

Tensor RowSum(const Tensor& t) {
  FEWNER_CHECK(t.rank() == 2, "RowSum requires rank 2, got " << t.shape().ToString());
  const int64_t r = t.shape().dim(0);
  const int64_t c = t.shape().dim(1);
  OpOutput out = NewOutput("row_sum", Shape{r});
  float* ov = out.data();
  const float* tv = t.data().data();
  for (int64_t i = 0; i < r; ++i) {
    // Double accumulation in ascending column order: bitwise-identical to
    // SumAll restricted to this row's elements.
    double total = 0.0;
    for (int64_t j = 0; j < c; ++j) total += tv[i * c + j];
    ov[i] = static_cast<float>(total);
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  Shape in_shape = t.shape();
  return SealGraph(std::move(out), {t},
                   [r, in_shape](const Tensor&, const Tensor& grad,
                                 const NeedsGrad&) -> std::vector<Tensor> {
                     return {BroadcastTo(Reshape(grad, Shape{r, 1}), in_shape)};
                   });
}

Tensor MaxAxis(const Tensor& t, int64_t axis, bool keepdim) {
  const Shape& shape = t.shape();
  FEWNER_CHECK(axis >= 0 && axis < shape.rank(), "MaxAxis axis out of range");
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= shape.dim(d);
  for (int64_t d = axis + 1; d < shape.rank(); ++d) inner *= shape.dim(d);
  const int64_t axis_size = shape.dim(axis);
  FEWNER_CHECK(axis_size > 0, "MaxAxis over empty axis");

  const bool graph = !EvalMode::active();
  const auto& tv = t.data();
  OpOutput out = NewOutput("max_axis", shape, /*zero=*/false, axis, 1);
  float* ov = out.data();
  // One-hot selection mask: locally constant, exact a.e. under create_graph.
  // Only the graph mode backward needs it.
  std::vector<float> mask;
  if (graph) mask.assign(tv.size(), 0.0f);
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      int64_t best = 0;
      float best_v = tv[static_cast<size_t>(o * axis_size * inner + i)];
      for (int64_t a = 1; a < axis_size; ++a) {
        const float v = tv[static_cast<size_t>((o * axis_size + a) * inner + i)];
        if (v > best_v) {
          best_v = v;
          best = a;
        }
      }
      ov[o * inner + i] = best_v;
      if (graph) mask[static_cast<size_t>((o * axis_size + best) * inner + i)] = 1.0f;
    }
  }
  Tensor result;
  if (graph) {
    Shape keep_shape = out.node->shape;
    Tensor mask_t = Tensor::FromData(shape, std::move(mask));
    Shape in_shape = shape;
    result = SealGraph(
        std::move(out), {t},
        [mask_t, keep_shape, in_shape](const Tensor&,
                                       const Tensor& grad,
                                       const NeedsGrad&) -> std::vector<Tensor> {
          Tensor g = Reshape(grad, keep_shape);
          return {Mul(BroadcastTo(g, in_shape), mask_t)};
        });
  } else {
    result = SealEval(std::move(out));
  }
  if (keepdim) return result;
  std::vector<int64_t> out_dims;
  for (int64_t d = 0; d < shape.rank(); ++d) {
    if (d != axis) out_dims.push_back(shape.dim(d));
  }
  return Reshape(result, Shape{std::move(out_dims)});
}

// ----- linear algebra -----

namespace {

/// Which operand of a MatMul-family op is read transposed.
enum class Layout { kNN, kNT, kTN };

/// The one checked body behind MatMul (A·B), MatMulNT (A·Bᵀ) and MatMulTN
/// (Aᵀ·B).  The register-tiled kernels serve graph and eval mode alike, so
/// training forwards take the same fast path as serving.  Each backward
/// product goes straight to the layout that reads its operands in place — no
/// Transpose nodes, no copies — and is built only for an input Grad needs.
Tensor MatMulOp(Layout layout, const Tensor& a, const Tensor& b) {
  const bool ta = layout == Layout::kTN;
  const bool tb = layout == Layout::kNT;
  const char* name = ta ? "MatMulTN" : tb ? "MatMulNT" : "MatMul";
  const char* at = ta ? "^T" : "";
  const char* bt = tb ? "^T" : "";
  FEWNER_CHECK(a.rank() == 2 && b.rank() == 2,
               name << " requires rank-2 operands, got " << a.shape().ToString() << at
                    << " x " << b.shape().ToString() << bt);
  const int64_t m = a.shape().dim(ta ? 1 : 0);
  const int64_t k = a.shape().dim(ta ? 0 : 1);
  const int64_t n = b.shape().dim(tb ? 0 : 1);
  FEWNER_CHECK(b.shape().dim(tb ? 1 : 0) == k,
               name << " inner dim mismatch: " << a.shape().ToString() << at << " x "
                    << b.shape().ToString() << bt);
  OpOutput out = NewOutput(ta ? "matmul_tn" : tb ? "matmul_nt" : "matmul", Shape{m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  if (ta) {
    kernel::GemmTN(pa, pb, out.data(), m, k, n);
  } else if (tb) {
    kernel::GemmNT(pa, pb, out.data(), m, k, n);
  } else {
    kernel::GemmNN(pa, pb, out.data(), m, k, n);
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(
      std::move(out), {a, b},
      [layout, a, b](const Tensor&, const Tensor& grad,
                     const NeedsGrad& needs) -> std::vector<Tensor> {
        std::vector<Tensor> grads(2);
        switch (layout) {
          case Layout::kNN:  // C = A·B: dA = G·Bᵀ, dB = Aᵀ·G
            if (needs[0]) grads[0] = MatMulNT(grad, b);
            if (needs[1]) grads[1] = MatMulTN(a, grad);
            break;
          case Layout::kNT:  // C = A·Bᵀ: dA = G·B, dB = Gᵀ·A
            if (needs[0]) grads[0] = MatMul(grad, b);
            if (needs[1]) grads[1] = MatMulTN(grad, a);
            break;
          case Layout::kTN:  // C = Aᵀ·B: dA = B·Gᵀ, dB = A·G
            if (needs[0]) grads[0] = MatMulNT(b, grad);
            if (needs[1]) grads[1] = MatMul(a, grad);
            break;
        }
        return grads;
      });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) { return MatMulOp(Layout::kNN, a, b); }

Tensor MatMulNT(const Tensor& a, const Tensor& b) { return MatMulOp(Layout::kNT, a, b); }

Tensor MatMulTN(const Tensor& a, const Tensor& b) { return MatMulOp(Layout::kTN, a, b); }

// ----- gather / scatter -----

Tensor IndexSelectRows(const Tensor& t, const std::vector<int64_t>& indices) {
  FEWNER_CHECK(t.rank() == 2, "IndexSelectRows requires rank 2");
  const int64_t v = t.shape().dim(0);
  const int64_t d = t.shape().dim(1);
  OpOutput out = NewOutput("index_select_rows",
                           Shape{static_cast<int64_t>(indices.size()), d});
  float* ov = out.data();
  const float* tv = t.data().data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t row = indices[i];
    FEWNER_CHECK(row >= 0 && row < v, "IndexSelectRows index " << row << " out of [0, "
                                                               << v << ")");
    CopyFloats(ov + i * static_cast<size_t>(d), tv + row * d, d);
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  std::vector<int64_t> idx = indices;
  return SealGraph(std::move(out), {t},
                   [idx, v](const Tensor&, const Tensor& grad,
                            const NeedsGrad&) -> std::vector<Tensor> {
                     return {ScatterAddRows(grad, idx, v)};
                   });
}

Tensor ScatterAddRows(const Tensor& src, const std::vector<int64_t>& indices,
                      int64_t num_rows) {
  FEWNER_CHECK(src.rank() == 2, "ScatterAddRows requires rank 2");
  FEWNER_CHECK(static_cast<int64_t>(indices.size()) == src.shape().dim(0),
               "ScatterAddRows: " << indices.size() << " indices for "
                                  << src.shape().dim(0) << " rows");
  const int64_t d = src.shape().dim(1);
  OpOutput out = NewOutput("scatter_add_rows", Shape{num_rows, d}, /*zero=*/true);
  float* ov = out.data();
  const float* sv = src.data().data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t row = indices[i];
    FEWNER_CHECK(row >= 0 && row < num_rows, "ScatterAddRows index out of range");
    for (int64_t j = 0; j < d; ++j) {
      ov[row * d + j] += sv[i * static_cast<size_t>(d) + static_cast<size_t>(j)];
    }
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  std::vector<int64_t> idx = indices;
  return SealGraph(std::move(out), {src},
                   [idx](const Tensor&, const Tensor& grad,
                         const NeedsGrad&) -> std::vector<Tensor> {
                     return {IndexSelectRows(grad, idx)};
                   });
}

Tensor UnfoldTimeBatch(const Tensor& t, int64_t window) {
  FEWNER_CHECK(t.rank() == 3, "UnfoldTimeBatch requires rank 3");
  const int64_t lanes = t.shape().dim(0);
  const int64_t length = t.shape().dim(1);
  const int64_t d = t.shape().dim(2);
  FEWNER_CHECK(window >= 1 && window <= length,
               "UnfoldTimeBatch window " << window << " for length " << length);
  const int64_t m = length - window + 1;
  OpOutput out = NewOutput("unfold_time_batch", Shape{lanes, m, window * d});
  float* ov = out.data();
  const float* tv = t.data().data();
  for (int64_t b = 0; b < lanes; ++b) {
    const float* src = tv + b * length * d;
    float* dst = ov + b * m * window * d;
    for (int64_t i = 0; i < m; ++i) {
      CopyFloats(dst + i * window * d, src + i * d, window * d);
    }
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {t},
                   [window](const Tensor&, const Tensor& grad,
                            const NeedsGrad&) -> std::vector<Tensor> {
                     return {FoldTimeBatch(grad, window)};
                   });
}

Tensor FoldTimeBatch(const Tensor& t, int64_t window) {
  FEWNER_CHECK(t.rank() == 3, "FoldTimeBatch requires rank 3");
  const int64_t lanes = t.shape().dim(0);
  const int64_t m = t.shape().dim(1);
  const int64_t wd = t.shape().dim(2);
  FEWNER_CHECK(window >= 1 && wd % window == 0,
               "FoldTimeBatch: window " << window << " does not divide row size " << wd);
  const int64_t d = wd / window;
  const int64_t length = m + window - 1;
  OpOutput out = NewOutput("fold_time_batch", Shape{lanes, length, d}, /*zero=*/true);
  float* ov = out.data();
  const float* tv = t.data().data();
  for (int64_t b = 0; b < lanes; ++b) {
    const float* src = tv + b * m * wd;
    float* dst = ov + b * length * d;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t w = 0; w < window; ++w) {
        for (int64_t j = 0; j < d; ++j) {
          dst[(i + w) * d + j] += src[i * wd + w * d + j];
        }
      }
    }
  }
  if (EvalMode::active()) return SealEval(std::move(out));
  return SealGraph(std::move(out), {t},
                   [window](const Tensor&, const Tensor& grad,
                            const NeedsGrad&) -> std::vector<Tensor> {
                     return {UnfoldTimeBatch(grad, window)};
                   });
}

Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  FEWNER_CHECK(cond.defined() && a.defined() && b.defined(), "Where on undefined tensor");
  FEWNER_CHECK(a.shape() == b.shape(), "Where branch shape mismatch: "
                                           << a.shape().ToString() << " vs "
                                           << b.shape().ToString());
  FEWNER_CHECK(cond.shape().BroadcastableTo(a.shape()),
               "Where cond " << cond.shape().ToString() << " not broadcastable to "
                             << a.shape().ToString());
  const bool graph = !EvalMode::active();
  const auto& av = a.data();
  const auto& bv = b.data();
  const auto& cv = cond.data();
  const int64_t n = a.numel();
  OpOutput out = NewOutput("where", a.shape());
  float* ov = out.data();
  // Selection masks for backward: constant a.e., exact like Relu's kink mask.
  std::vector<float> sel;
  if (graph) sel.assign(static_cast<size_t>(n), 0.0f);
  if (const std::optional<Repeat> r = Repeats(cond.shape(), a.shape())) {
    // cond's run o masks output runs (o, m); the same shape is one run.
    for (int64_t o = 0; o < r->outer; ++o) {
      const float* crow = cv.data() + o * r->inner;
      for (int64_t m = 0; m < r->mid; ++m) {
        const int64_t base = (o * r->mid + m) * r->inner;
        for (int64_t j = 0; j < r->inner; ++j) {
          const bool take_a = crow[j] != 0.0f;
          ov[base + j] = take_a ? av[static_cast<size_t>(base + j)]
                                : bv[static_cast<size_t>(base + j)];
          if (graph && take_a) sel[static_cast<size_t>(base + j)] = 1.0f;
        }
      }
    }
  } else {
    BroadcastIndexer indexer(cond.shape(), a.shape());
    for (int64_t i = 0; i < n; ++i) {
      const bool take_a = cv[static_cast<size_t>(indexer.Next())] != 0.0f;
      ov[i] = take_a ? av[static_cast<size_t>(i)] : bv[static_cast<size_t>(i)];
      if (graph && take_a) sel[static_cast<size_t>(i)] = 1.0f;
    }
  }
  if (!graph) return SealEval(std::move(out));
  Tensor sel_t = Tensor::FromData(a.shape(), std::move(sel));
  return SealGraph(std::move(out), {a, b},
                   [sel_t](const Tensor&, const Tensor& grad,
                           const NeedsGrad& needs) -> std::vector<Tensor> {
                     std::vector<Tensor> grads(2);
                     if (needs[0]) grads[0] = Mul(grad, sel_t);
                     if (needs[1]) grads[1] = Mul(grad, AddScalar(Neg(sel_t), 1.0f));
                     return grads;
                   });
}

std::vector<Tensor> CarryFinishedLanes(std::vector<Tensor> next,
                                       const std::vector<Tensor>& prev,
                                       const std::vector<int64_t>& lengths, int64_t max_len,
                                       int64_t t) {
  FEWNER_CHECK(!next.empty() && prev.size() == next.size(),
               "CarryFinishedLanes: " << next.size() << " next and " << prev.size()
                                      << " prev states");
  const int64_t lanes = static_cast<int64_t>(lengths.size());
  for (const Tensor& state : next) {
    FEWNER_CHECK(state.defined() && state.rank() == 2 && state.shape().dim(0) == lanes,
                 "CarryFinishedLanes expects [" << lanes << ", D] states, got "
                                                << (state.defined() ? state.shape().ToString()
                                                                    : std::string("undefined")));
  }
  FEWNER_CHECK(t >= 0 && t < max_len,
               "CarryFinishedLanes: step " << t << " out of [0, " << max_len << ")");
  std::vector<float> live(static_cast<size_t>(lanes), 0.0f);
  bool all_live = true;
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t len = lengths[static_cast<size_t>(b)];
    FEWNER_CHECK(len >= 0 && len <= max_len, "CarryFinishedLanes: lane "
                                                 << b << " length " << len << " out of [0, "
                                                 << max_len << "]");
    if (t < len) {
      live[static_cast<size_t>(b)] = 1.0f;
    } else {
      all_live = false;
    }
  }
  if (all_live) return next;
  const Tensor mask = Tensor::FromData(Shape{lanes, 1}, std::move(live));
  for (size_t i = 0; i < next.size(); ++i) next[i] = Where(mask, next[i], prev[i]);
  return next;
}

// ----- fused ops -----

Tensor FusedOp(const char* name, const char* kernel_name, Shape shape,
               std::vector<Tensor> inputs, const std::function<void(float*, bool)>& forward,
               FusedBackwardFn first_order, CompositeFn composite) {
  bool graph = false;
  if (!EvalMode::active()) {
    for (const Tensor& in : inputs) graph = graph || in.requires_grad();
  }
  // Without a graph this is the op's one node; with one, its kernel node.
  OpOutput computed = NewOutput(graph ? kernel_name : name, shape);
  const int64_t n = computed.node->shape.numel();
  if (n > 0) forward(computed.data(), /*tape=*/graph);
  if (!graph) {
    if (EvalMode::active()) return SealEval(std::move(computed));
    return SealGraph(std::move(computed), std::move(inputs), nullptr);
  }
  // The visible node holds the kernel node, so the kernel node's closure only
  // runs inside a Grad that reached it through the visible node and holds
  // both; the pointer does not own.
  auto visible = std::make_shared<internal::Node*>(nullptr);
  Tensor kernel = SealGraph(
      std::move(computed), std::move(inputs),
      [first_order = std::move(first_order), composite = std::move(composite), visible](
          const Tensor& self, const Tensor& grad, const NeedsGrad& needs) {
        const std::vector<Tensor>& in = self.node()->inputs;
        if (EvalMode::active()) return first_order(in, grad, needs);
        Tensor rebuilt = composite(in);
        std::vector<Tensor> wanted;
        for (size_t i = 0; i < in.size(); ++i) {
          if (needs[i]) wanted.push_back(in[i]);
        }
        const std::vector<std::vector<Tensor>> found =
            autodiff::GradContributions(rebuilt, wanted, grad);
        std::vector<Tensor> grads(in.size());
        size_t next = 0;
        for (size_t i = 0; i < in.size(); ++i) {
          if (!needs[i]) continue;
          const std::vector<Tensor>& list = found[next++];
          if (list.empty()) {
            grads[i] = Tensor::Zeros(in[i].shape());
          } else if (i == 0) {
            grads[0] = list[0];
            for (size_t k = 1; k < list.size(); ++k) grads[0] = Add(grads[0], list[k]);
          } else {
            for (const Tensor& g : list) autodiff::FoldInputGrad(i, g);
          }
        }
        (*visible)->inputs = {rebuilt};
        return grads;
      });
  Tensor result = SealGraph(NewView(name, std::move(shape), kernel), {kernel},
                            [](const Tensor&, const Tensor& grad,
                               const NeedsGrad&) -> std::vector<Tensor> { return {grad}; });
  *visible = result.node();
  return result;
}

// ----- composites -----

Tensor LogSumExpLastDim(const Tensor& t) {
  const int64_t axis = t.rank() - 1;
  FEWNER_CHECK(axis >= 0, "LogSumExpLastDim on a scalar");
  // Detached max shift: constant w.r.t. differentiation, exact for stability.
  Tensor m = MaxAxis(t, axis, /*keepdim=*/true);
  if (!EvalMode::active()) m = m.Detach();
  Tensor shifted = Sub(t, BroadcastTo(m, t.shape()));
  Tensor lse = Log(SumAxis(Exp(shifted), axis, /*keepdim=*/true));
  return Add(lse, m);
}

Tensor LogSoftmaxLastDim(const Tensor& t) {
  return Sub(t, BroadcastTo(LogSumExpLastDim(t), t.shape()));
}

Tensor SoftmaxLastDim(const Tensor& t) { return Exp(LogSoftmaxLastDim(t)); }

}  // namespace fewner::tensor
