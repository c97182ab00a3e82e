// Tests for shapes, tensor construction, and forward semantics of every op.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/matmul_kernel.h"
#include "tensor/ops.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fewner::tensor {
namespace {

TEST(ShapeTest, Basics) {
  Shape s{3, 4};
  EXPECT_EQ(s.rank(), 2);
  EXPECT_EQ(s.numel(), 12);
  EXPECT_EQ(s.ToString(), "[3, 4]");
  Shape scalar{};
  EXPECT_EQ(scalar.rank(), 0);
  EXPECT_EQ(scalar.numel(), 1);
}

TEST(ShapeTest, Strides) {
  Shape s{2, 3, 4};
  auto strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, BroadcastRules) {
  auto r = Shape::Broadcast(Shape{3, 1}, Shape{1, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (Shape{3, 4}));

  r = Shape::Broadcast(Shape{5}, Shape{2, 5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (Shape{2, 5}));

  r = Shape::Broadcast(Shape{}, Shape{2, 5});  // scalar broadcasts anywhere
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (Shape{2, 5}));

  EXPECT_FALSE(Shape::Broadcast(Shape{3}, Shape{4}).ok());
}

TEST(ShapeTest, BroadcastableTo) {
  EXPECT_TRUE(Shape({1, 4}).BroadcastableTo(Shape{3, 4}));
  EXPECT_TRUE(Shape({}).BroadcastableTo(Shape{3, 4}));
  EXPECT_FALSE(Shape({2, 4}).BroadcastableTo(Shape{3, 4}));
  EXPECT_FALSE(Shape({3, 4}).BroadcastableTo(Shape{4}));
}

TEST(TensorTest, Construction) {
  Tensor t = Tensor::FromData(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.numel(), 4);
  EXPECT_FLOAT_EQ(t.at(3), 4.0f);
  EXPECT_FALSE(t.requires_grad());

  Tensor s = Tensor::Scalar(2.5f);
  EXPECT_FLOAT_EQ(s.item(), 2.5f);

  Tensor z = Tensor::Zeros(Shape{3});
  EXPECT_FLOAT_EQ(z.at(0) + z.at(1) + z.at(2), 0.0f);

  Tensor o = Tensor::Ones(Shape{2}, /*requires_grad=*/true);
  EXPECT_TRUE(o.requires_grad());
}

TEST(TensorTest, RandnStats) {
  util::Rng rng(3);
  Tensor t = Tensor::Randn(Shape{10000}, &rng, 2.0f);
  double mean = 0, var = 0;
  for (float v : t.data()) mean += v;
  mean /= t.numel();
  for (float v : t.data()) var += (v - mean) * (v - mean);
  var /= t.numel();
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(TensorTest, DetachSharesValuesCutsGraph) {
  Tensor a = Tensor::Ones(Shape{2}, true);
  Tensor b = MulScalar(a, 3.0f);
  EXPECT_TRUE(b.requires_grad());
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(d.at(0), 3.0f);
}

TEST(TensorViewTest, ReshapeAndDetachOfAnOpOutputShareItsBuffer) {
  for (bool eval : {false, true}) {
    SCOPED_TRACE(eval ? "eval" : "graph");
    std::optional<EvalMode> scope;
    if (eval) scope.emplace();
    Tensor x = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6}, /*requires_grad=*/!eval);
    Tensor y = MulScalar(x, 2.0f);  // an op output
    Tensor r = Reshape(y, Shape{3, 2});
    Tensor d = y.Detach();
    EXPECT_EQ(r.data().data(), y.data().data());
    // Detach views only an output without graph edges (eval mode); a
    // graph-mode output is copied, so the leaf does not hold its graph.
    EXPECT_EQ(d.data().data() == y.data().data(), eval);
    EXPECT_EQ(d.data(), y.data());
    EXPECT_EQ(r.shape(), (Shape{3, 2}));
    EXPECT_EQ(d.shape(), (Shape{2, 3}));
    EXPECT_EQ(r.requires_grad(), !eval);
    EXPECT_FALSE(d.requires_grad());
    // A view of a view reads the op output's buffer too, and Detach of a
    // view copies in graph mode, as of the op output itself.
    EXPECT_EQ(Reshape(r, Shape{6}).data().data(), y.data().data());
    EXPECT_EQ(r.Detach().data().data() == y.data().data(), eval);
    EXPECT_EQ(Reshape(d, Shape{6}).data().data() == y.data().data(), eval);
    // A leaf's Reshape and Detach copy its values.
    Tensor rx = Reshape(x, Shape{6});
    Tensor dx = x.Detach();
    EXPECT_NE(rx.data().data(), x.data().data());
    EXPECT_NE(dx.data().data(), x.data().data());
    EXPECT_EQ(rx.data(), x.data());
    EXPECT_EQ(dx.data(), x.data());
  }
}

TEST(TensorViewTest, DetachOfAGraphModeOpOutputLetsItsGraphGo) {
  Tensor x = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6}, /*requires_grad=*/true);
  Tensor d = MulScalar(x, 2.0f).Detach();
  // The op's handle is gone: nothing but `x` itself holds x's node, so the
  // detached leaf keeps no input edge or backward closure alive.
  EXPECT_EQ(x.use_count(), 1);
  EXPECT_EQ(d.data(), (std::vector<float>{2, 4, 6, 8, 10, 12}));
  EXPECT_FALSE(d.requires_grad());
}

TEST(TensorViewTest, AdamStepLeavesEarlierReshapeAndDetachOfALeafUnchanged) {
  Tensor w = Tensor::FromData(Shape{2, 2}, {0.5f, -1.0f, 2.0f, 0.25f}, true);
  const std::vector<float> before = w.data();
  Tensor r = Reshape(w, Shape{4});
  Tensor d = w.Detach();
  nn::Adam adam({&w}, 0.1f);
  adam.Step({Tensor::Ones(Shape{2, 2})});
  EXPECT_NE(w.data(), before);
  EXPECT_EQ(r.data(), before);
  EXPECT_EQ(d.data(), before);
}

TEST(TensorViewTest, MutableDataOnADetachedOpOutputCopiesOnWrite) {
  // In eval mode the Detach is a view, written through copy on write; in
  // graph mode it is a copy from the start.
  for (bool eval : {false, true}) {
    SCOPED_TRACE(eval ? "eval" : "graph");
    std::optional<EvalMode> scope;
    if (eval) scope.emplace();
    Tensor x = Tensor::FromData(Shape{3}, {1, 2, 3});
    Tensor y = MulScalar(x, 2.0f);
    Tensor r = Reshape(y, Shape{1, 3});
    Tensor d = y.Detach();
    const std::vector<float> before = y.data();
    (*d.mutable_data())[0] = 42.0f;
    EXPECT_EQ(d.at(0), 42.0f);
    EXPECT_EQ(d.at(1), 4.0f);
    EXPECT_NE(d.data().data(), y.data().data());
    EXPECT_EQ(y.data(), before);
    EXPECT_EQ(r.data(), before);
  }
}

TEST(OpsTest, AddSubMulDiv) {
  Tensor a = Tensor::FromData(Shape{2}, {1, 2});
  Tensor b = Tensor::FromData(Shape{2}, {3, 5});
  EXPECT_FLOAT_EQ(Add(a, b).at(1), 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).at(0), -2.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(1), 10.0f);
  EXPECT_FLOAT_EQ(Div(b, a).at(1), 2.5f);
}

TEST(OpsTest, BroadcastAddRowVector) {
  Tensor m = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromData(Shape{3}, {10, 20, 30});
  Tensor out = Add(m, row);
  EXPECT_EQ(out.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(out.at(0), 11.0f);
  EXPECT_FLOAT_EQ(out.at(5), 36.0f);
}

TEST(OpsTest, BroadcastColumnAgainstMatrix) {
  Tensor col = Tensor::FromData(Shape{2, 1}, {1, 2});
  Tensor m = Tensor::FromData(Shape{2, 3}, {0, 0, 0, 0, 0, 0});
  Tensor out = Add(m, col);
  EXPECT_FLOAT_EQ(out.at(0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(3), 2.0f);
  EXPECT_FLOAT_EQ(out.at(5), 2.0f);
}

TEST(OpsTest, ScalarBroadcast) {
  Tensor m = Tensor::FromData(Shape{2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(10.0f);
  EXPECT_FLOAT_EQ(Mul(m, s).at(3), 40.0f);
}

TEST(OpsTest, Unary) {
  Tensor t = Tensor::FromData(Shape{3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Neg(t).at(0), 1.0f);
  EXPECT_FLOAT_EQ(Relu(t).at(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(t).at(2), 2.0f);
  EXPECT_NEAR(Sigmoid(t).at(1), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(t).at(2), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Exp(t).at(2), std::exp(2.0f), 1e-4);
  Tensor pos = Tensor::FromData(Shape{2}, {1.0f, std::exp(1.0f)});
  EXPECT_NEAR(Log(pos).at(1), 1.0f, 1e-6);
  EXPECT_NEAR(Sqrt(Tensor::FromData(Shape{1}, {9.0f})).at(0), 3.0f, 1e-6);
  EXPECT_FLOAT_EQ(Square(t).at(2), 4.0f);
}

TEST(OpsTest, ScalarForms) {
  Tensor t = Tensor::FromData(Shape{2}, {1, 2});
  EXPECT_FLOAT_EQ(AddScalar(t, 0.5f).at(0), 1.5f);
  EXPECT_FLOAT_EQ(MulScalar(t, -2.0f).at(1), -4.0f);
}

TEST(OpsTest, ReshapeTranspose) {
  Tensor t = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(t, Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(r.at(2), 3.0f);  // same row-major data

  Tensor tr = Transpose(t);
  EXPECT_EQ(tr.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(tr.at(1), 4.0f);  // tr[0,1] = t[1,0]
}

TEST(OpsTest, BroadcastToAndSumToAreAdjoint) {
  Tensor t = Tensor::FromData(Shape{3}, {1, 2, 3});
  Tensor b = BroadcastTo(t, Shape{2, 3});
  EXPECT_FLOAT_EQ(b.at(3), 1.0f);
  Tensor s = SumTo(b, Shape{3});
  EXPECT_FLOAT_EQ(s.at(0), 2.0f);
  EXPECT_FLOAT_EQ(s.at(2), 6.0f);
}

TEST(OpsTest, ConcatAndSlice) {
  Tensor a = Tensor::FromData(Shape{1, 2}, {1, 2});
  Tensor b = Tensor::FromData(Shape{2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(c.at(4), 5.0f);

  Tensor mid = Slice(c, 0, 1, 2);
  EXPECT_EQ(mid.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(mid.at(0), 3.0f);

  Tensor cols = Concat({a, a}, 1);
  EXPECT_EQ(cols.shape(), (Shape{1, 4}));
  EXPECT_FLOAT_EQ(cols.at(2), 1.0f);

  Tensor col_slice = Slice(b, 1, 1, 1);
  EXPECT_EQ(col_slice.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(col_slice.at(1), 6.0f);
}

TEST(OpsTest, Reductions) {
  Tensor t = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(SumAll(t).item(), 21.0f);

  Tensor rows = SumAxis(t, 1, /*keepdim=*/false);
  EXPECT_EQ(rows.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(rows.at(0), 6.0f);

  Tensor cols = SumAxis(t, 0, /*keepdim=*/true);
  EXPECT_EQ(cols.shape(), (Shape{1, 3}));
  EXPECT_FLOAT_EQ(cols.at(2), 9.0f);
}

TEST(OpsTest, MaxAxis) {
  Tensor t = Tensor::FromData(Shape{2, 3}, {1, 9, 3, 7, 5, 6});
  Tensor m = MaxAxis(t, 1, /*keepdim=*/false);
  EXPECT_EQ(m.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(m.at(0), 9.0f);
  EXPECT_FLOAT_EQ(m.at(1), 7.0f);

  Tensor m0 = MaxAxis(t, 0, /*keepdim=*/true);
  EXPECT_EQ(m0.shape(), (Shape{1, 3}));
  EXPECT_FLOAT_EQ(m0.at(0), 7.0f);
}

TEST(OpsTest, MatMul) {
  Tensor a = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
}

TEST(OpsTest, IndexSelectAndScatterAdd) {
  Tensor w = Tensor::FromData(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor sel = IndexSelectRows(w, {2, 0, 2});
  EXPECT_EQ(sel.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(sel.at(0), 5.0f);
  EXPECT_FLOAT_EQ(sel.at(2), 1.0f);

  Tensor scattered = ScatterAddRows(sel, {2, 0, 2}, 3);
  EXPECT_EQ(scattered.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(scattered.at(0), 1.0f);   // row 0 got one copy
  EXPECT_FLOAT_EQ(scattered.at(4), 10.0f);  // row 2 got two copies of 5
  EXPECT_FLOAT_EQ(scattered.at(2), 0.0f);   // row 1 untouched
}

TEST(OpsTest, UnfoldFold) {
  // One lane of a [4, 2] sequence, window 2 -> [1, 3, 4].
  Tensor t = Tensor::FromData(Shape{1, 4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor u = UnfoldTimeBatch(t, 2);
  EXPECT_EQ(u.shape(), (Shape{1, 3, 4}));
  // Window 1 is rows 1..2 of the input: [3, 4, 5, 6].
  EXPECT_FLOAT_EQ(u.at(4), 3.0f);
  EXPECT_FLOAT_EQ(u.at(7), 6.0f);

  Tensor f = FoldTimeBatch(u, 2);
  EXPECT_EQ(f.shape(), (Shape{1, 4, 2}));
  // Middle rows are double-counted by overlap-add.
  EXPECT_FLOAT_EQ(f.at(0), 1.0f);
  EXPECT_FLOAT_EQ(f.at(2), 6.0f);
  EXPECT_FLOAT_EQ(f.at(7), 8.0f);
}

TEST(OpsTest, LogSumExpMatchesNaive) {
  Tensor t = Tensor::FromData(Shape{2, 3}, {1, 2, 3, -1, -2, -3});
  Tensor lse = LogSumExpLastDim(t);
  EXPECT_EQ(lse.shape(), (Shape{2, 1}));
  const float expected0 =
      std::log(std::exp(1.0f) + std::exp(2.0f) + std::exp(3.0f));
  EXPECT_NEAR(lse.at(0), expected0, 1e-5);
}

TEST(OpsTest, LogSumExpStableForLargeInputs) {
  Tensor t = Tensor::FromData(Shape{1, 2}, {1000.0f, 1000.0f});
  Tensor lse = LogSumExpLastDim(t);
  EXPECT_NEAR(lse.at(0), 1000.0f + std::log(2.0f), 1e-3);
  EXPECT_TRUE(std::isfinite(lse.at(0)));
}

TEST(OpsTest, SoftmaxSumsToOne) {
  Tensor t = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 0, 0, 0});
  Tensor p = SoftmaxLastDim(t);
  EXPECT_NEAR(p.at(0) + p.at(1) + p.at(2), 1.0f, 1e-5);
  EXPECT_NEAR(p.at(3), 1.0f / 3.0f, 1e-5);
  Tensor lp = LogSoftmaxLastDim(t);
  EXPECT_NEAR(std::exp(lp.at(2)), p.at(2), 1e-5);
}

TEST(OpsTest, RequiresGradPropagates) {
  Tensor a = Tensor::Ones(Shape{2}, true);
  Tensor b = Tensor::Ones(Shape{2});
  EXPECT_TRUE(Add(a, b).requires_grad());
  EXPECT_FALSE(Add(b, b).requires_grad());
  EXPECT_TRUE(MatMul(Reshape(a, Shape{1, 2}), Reshape(b, Shape{2, 1})).requires_grad());
}

TEST(MatMulKernelTest, BlockedMatchesNaiveBitwiseOnAwkwardShapes) {
  // Shapes deliberately straddle the 4x8 register tile: remainder rows,
  // remainder columns, degenerate dims.  The kernels promise identical
  // per-element accumulation order, so equality must hold to the last bit.
  const int64_t sizes[] = {1, 2, 3, 5, 7, 9, 17, 33};
  util::Rng rng(515);
  for (int64_t m : sizes) {
    for (int64_t k : sizes) {
      for (int64_t n : sizes) {
        std::vector<float> a(static_cast<size_t>(m * k));
        std::vector<float> b(static_cast<size_t>(k * n));
        for (float& v : a) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
        for (float& v : b) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
        // Sprinkle exact zeros to exercise the naive kernel's skip branch.
        for (size_t i = 0; i < a.size(); i += 7) a[i] = 0.0f;
        std::vector<float> blocked(static_cast<size_t>(m * n), -1.0f);
        std::vector<float> naive(static_cast<size_t>(m * n), -2.0f);
        kernel::MatMulBlocked(a.data(), b.data(), blocked.data(), m, k, n);
        kernel::MatMulNaive(a.data(), b.data(), naive.data(), m, k, n);
        for (size_t i = 0; i < blocked.size(); ++i) {
          ASSERT_EQ(std::memcmp(&blocked[i], &naive[i], sizeof(float)), 0)
              << "m=" << m << " k=" << k << " n=" << n << " elem " << i << ": "
              << blocked[i] << " vs " << naive[i];
        }
      }
    }
  }
}

TEST(OpsTest, UnfoldFoldAreAdjoint) {
  // <Unfold(x), y> == <x, Fold(y)> for all x, y — the defining property of an
  // adjoint pair, which is exactly what autodiff uses them as.
  util::Rng rng(81);
  for (int64_t window = 1; window <= 3; ++window) {
    Tensor x = Tensor::Randn(Shape{1, 6, 2}, &rng);
    Tensor y = Tensor::Randn(Shape{1, 6 - window + 1, window * 2}, &rng);
    const Tensor ux = UnfoldTimeBatch(x, window);
    const Tensor fy = FoldTimeBatch(y, window);
    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < ux.numel(); ++i) lhs += ux.at(i) * y.at(i);
    for (int64_t i = 0; i < x.numel(); ++i) rhs += x.at(i) * fy.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-4) << "window " << window;
  }
}

TEST(OpsTest, UnfoldFoldGradientsMatchFiniteDifferences) {
  util::Rng rng(82);
  const int64_t window = 2;
  Tensor x = Tensor::Randn(Shape{1, 5, 3}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(Shape{1, 4, 6}, &rng);  // random probe direction
  auto loss_at = [&](const std::vector<float>& values) {
    Tensor t = Tensor::FromData(x.shape(), values);
    return SumAll(Mul(UnfoldTimeBatch(t, window), w)).item();
  };
  Tensor loss = SumAll(Mul(UnfoldTimeBatch(x, window), w));
  auto g = autodiff::Grad(loss, {x});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data(), minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    EXPECT_NEAR(g[0].at(i), (loss_at(plus) - loss_at(minus)) / (2 * eps), 1e-2)
        << "x[" << i << "]";
  }
}

TEST(OpsTest, IndexSelectScatterAddAreAdjoint) {
  // <IndexSelect(x, idx), y> == <x, ScatterAdd(y, idx)>, including repeated
  // indices, which is where a buggy scatter would drop contributions.
  util::Rng rng(83);
  const std::vector<int64_t> idx = {0, 3, 3, 1, 4, 3};
  Tensor x = Tensor::Randn(Shape{5, 2}, &rng);
  Tensor y = Tensor::Randn(Shape{static_cast<int64_t>(idx.size()), 2}, &rng);
  const Tensor sel = IndexSelectRows(x, idx);
  const Tensor sc = ScatterAddRows(y, idx, 5);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < sel.numel(); ++i) lhs += sel.at(i) * y.at(i);
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x.at(i) * sc.at(i);
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(OpsTest, IndexSelectGradientMatchesFiniteDifferences) {
  util::Rng rng(84);
  const std::vector<int64_t> idx = {2, 0, 2, 1};
  Tensor x = Tensor::Randn(Shape{3, 2}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(Shape{4, 2}, &rng);
  auto loss_at = [&](const std::vector<float>& values) {
    Tensor t = Tensor::FromData(x.shape(), values);
    return SumAll(Mul(IndexSelectRows(t, idx), w)).item();
  };
  Tensor loss = SumAll(Mul(IndexSelectRows(x, idx), w));
  auto g = autodiff::Grad(loss, {x});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data(), minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    EXPECT_NEAR(g[0].at(i), (loss_at(plus) - loss_at(minus)) / (2 * eps), 1e-2)
        << "x[" << i << "]";
  }
}

using TensorDeathTest = ::testing::Test;

TEST(TensorDeathTest, MutableDataOnGraphOpOutputAborts) {
  Tensor a = Tensor::FromData(Shape{2}, {1.0f, 2.0f});
  Tensor sum = Add(a, a);
  EXPECT_DEATH(sum.mutable_data(), "leaf");
}

TEST(TensorDeathTest, MutableDataOnEvalOpOutputAborts) {
  // Eval-mode outputs have no input edges, so the leaf flag is the only thing
  // standing between a caller and an arena-recycled buffer.
  Tensor a = Tensor::FromData(Shape{2}, {1.0f, 2.0f});
  Tensor sum;
  {
    EvalMode eval;
    sum = Add(a, a);
  }
  EXPECT_DEATH(sum.mutable_data(), "leaf");
}

TEST(TensorDeathTest, MutableDataOnLeafStillWorks) {
  Tensor a = Tensor::FromData(Shape{2}, {1.0f, 2.0f});
  (*a.mutable_data())[0] = 5.0f;
  EXPECT_EQ(a.at(0), 5.0f);
  Tensor d = Add(a, a).Detach();  // Detach re-leafs an op output
  (*d.mutable_data())[0] = 7.0f;
  EXPECT_EQ(d.at(0), 7.0f);
}

}  // namespace
}  // namespace fewner::tensor
