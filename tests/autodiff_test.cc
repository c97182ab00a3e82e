// Tests for reverse-mode autodiff, including finite-difference gradient checks
// over every differentiable op and exact second-order (grad-of-grad) checks —
// the property FEWNER's meta-gradient depends on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "meta/fewner.h"
#include "meta/maml.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/rng.h"

namespace fewner::tensor {
namespace {

using autodiff::Grad;

/// Central finite-difference check of d(loss)/d(x) for every element of x.
void CheckGradient(const std::function<Tensor(const Tensor&)>& loss_fn, Tensor x,
                   float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = loss_fn(x);
  std::vector<Tensor> grads = Grad(loss, {x});
  ASSERT_EQ(grads.size(), 1u);
  const Tensor& g = grads[0];
  ASSERT_EQ(g.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data();
    std::vector<float> minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    Tensor xp = Tensor::FromData(x.shape(), plus, true);
    Tensor xm = Tensor::FromData(x.shape(), minus, true);
    const float numeric = (loss_fn(xp).item() - loss_fn(xm).item()) / (2 * eps);
    EXPECT_NEAR(g.at(i), numeric, tol) << "element " << i;
  }
}

Tensor RandTensor(Shape shape, uint64_t seed, float stddev = 1.0f) {
  util::Rng rng(seed);
  return Tensor::Randn(std::move(shape), &rng, stddev, /*requires_grad=*/true);
}

TEST(AutodiffTest, SimpleChain) {
  // loss = sum((2x + 1)^2); dloss/dx = 4(2x + 1).
  Tensor x = Tensor::FromData(Shape{3}, {0.0f, 1.0f, -1.0f}, true);
  Tensor loss = SumAll(Square(AddScalar(MulScalar(x, 2.0f), 1.0f)));
  auto g = Grad(loss, {x});
  EXPECT_FLOAT_EQ(g[0].at(0), 4.0f);
  EXPECT_FLOAT_EQ(g[0].at(1), 12.0f);
  EXPECT_FLOAT_EQ(g[0].at(2), -4.0f);
}

TEST(AutodiffTest, GradOfIndependentInputIsZero) {
  Tensor x = Tensor::Ones(Shape{2}, true);
  Tensor y = Tensor::Ones(Shape{2}, true);
  Tensor loss = SumAll(x);
  auto g = Grad(loss, {x, y});
  EXPECT_FLOAT_EQ(g[0].at(0), 1.0f);
  EXPECT_FLOAT_EQ(g[1].at(0), 0.0f);
  EXPECT_FLOAT_EQ(g[1].at(1), 0.0f);
}

TEST(AutodiffTest, FanOutAccumulates) {
  // loss = sum(x * x) computed through two separate consumers of x.
  Tensor x = Tensor::FromData(Shape{2}, {3.0f, -2.0f}, true);
  Tensor a = MulScalar(x, 1.0f);
  Tensor loss = SumAll(Mul(a, x));
  auto g = Grad(loss, {x});
  EXPECT_FLOAT_EQ(g[0].at(0), 6.0f);
  EXPECT_FLOAT_EQ(g[0].at(1), -4.0f);
}

TEST(AutodiffTest, GradDetachedByDefault) {
  Tensor x = Tensor::Ones(Shape{2}, true);
  auto g = Grad(SumAll(Square(x)), {x}, /*create_graph=*/false);
  EXPECT_FALSE(g[0].requires_grad());
  auto g2 = Grad(SumAll(Square(x)), {x}, /*create_graph=*/true);
  EXPECT_TRUE(g2[0].requires_grad());
}

TEST(AutodiffTest, DetachBlocksFlow) {
  Tensor x = Tensor::FromData(Shape{2}, {1.0f, 2.0f}, true);
  Tensor loss = SumAll(Mul(x.Detach(), x));  // d/dx = detached(x)
  auto g = Grad(loss, {x});
  EXPECT_FLOAT_EQ(g[0].at(0), 1.0f);
  EXPECT_FLOAT_EQ(g[0].at(1), 2.0f);
}

// --- finite-difference sweeps over ops ---

TEST(GradCheckTest, AddMulSubDivBroadcast) {
  Tensor y = Tensor::FromData(Shape{3}, {0.5f, 1.5f, 2.5f});
  CheckGradient([&](const Tensor& x) { return SumAll(Add(x, y)); },
                RandTensor(Shape{2, 3}, 1));
  CheckGradient([&](const Tensor& x) { return SumAll(Mul(x, y)); },
                RandTensor(Shape{2, 3}, 2));
  CheckGradient([&](const Tensor& x) { return SumAll(Sub(y, x)); },
                RandTensor(Shape{2, 3}, 3));
  CheckGradient([&](const Tensor& x) { return SumAll(Div(y, AddScalar(Square(x), 1.0f))); },
                RandTensor(Shape{2, 3}, 4));
}

TEST(GradCheckTest, BroadcastFromSmallSide) {
  Tensor big = RandTensor(Shape{4, 3}, 10);
  big.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(Mul(big, x))); },
                RandTensor(Shape{3}, 11));
  CheckGradient([&](const Tensor& x) { return SumAll(Square(Add(big, x))); },
                RandTensor(Shape{4, 1}, 12));
}

TEST(GradCheckTest, Activations) {
  CheckGradient([](const Tensor& x) { return SumAll(Sigmoid(x)); },
                RandTensor(Shape{5}, 5));
  CheckGradient([](const Tensor& x) { return SumAll(Tanh(x)); },
                RandTensor(Shape{5}, 6));
  CheckGradient([](const Tensor& x) { return SumAll(Exp(x)); },
                RandTensor(Shape{5}, 7, 0.5f));
  CheckGradient([](const Tensor& x) { return SumAll(Log(AddScalar(Square(x), 1.0f))); },
                RandTensor(Shape{5}, 8));
  CheckGradient([](const Tensor& x) { return SumAll(Sqrt(AddScalar(Square(x), 1.0f))); },
                RandTensor(Shape{5}, 9));
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Values bounded away from 0 so finite differences are valid.
  Tensor x = Tensor::FromData(Shape{4}, {-2.0f, -0.5f, 0.5f, 2.0f}, true);
  CheckGradient([](const Tensor& t) { return SumAll(Square(Relu(t))); }, x);
}

TEST(GradCheckTest, MatMulBothSides) {
  Tensor b = RandTensor(Shape{3, 2}, 20);
  b.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(MatMul(x, b))); },
                RandTensor(Shape{2, 3}, 21));
  Tensor a = RandTensor(Shape{2, 3}, 22);
  a.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(MatMul(a, x))); },
                RandTensor(Shape{3, 2}, 23));
}

TEST(GradCheckTest, MatMulNTBothSides) {
  Tensor b = RandTensor(Shape{2, 3}, 24);  // [n, k]
  b.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(MatMulNT(x, b))); },
                RandTensor(Shape{4, 3}, 25));
  Tensor a = RandTensor(Shape{4, 3}, 26);
  a.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(MatMulNT(a, x))); },
                RandTensor(Shape{2, 3}, 27));
}

TEST(GradCheckTest, MatMulTNBothSides) {
  Tensor b = RandTensor(Shape{3, 2}, 28);  // [k, n]
  b.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(MatMulTN(x, b))); },
                RandTensor(Shape{3, 4}, 29));
  Tensor a = RandTensor(Shape{3, 4}, 35);
  a.set_requires_grad(false);
  CheckGradient([&](const Tensor& x) { return SumAll(Square(MatMulTN(a, x))); },
                RandTensor(Shape{3, 2}, 36));
}

TEST(AutodiffTest, MatMulFamilyMatchesTransposeCompositionBitwise) {
  // The NT/TN ops and MatMul's transpose-free backward must reproduce the
  // transpose-materializing formulations they replaced to the last bit —
  // forward values AND gradients, including through create_graph.  `s` seeds
  // a non-trivial incoming gradient for the product.
  Tensor a = RandTensor(Shape{5, 3}, 90);
  Tensor b = RandTensor(Shape{3, 4}, 91);
  Tensor s = RandTensor(Shape{5, 4}, 92);
  s.set_requires_grad(false);

  struct Formulation {
    Tensor value;
    std::vector<Tensor> grads;
  };
  auto run = [&](const std::function<Tensor()>& product) {
    Tensor c = product();
    auto grads = Grad(SumAll(Mul(c, s)), {a, b}, /*create_graph=*/true);
    return Formulation{c, std::move(grads)};
  };
  auto expect_same = [](const Formulation& got, const Formulation& want) {
    ASSERT_EQ(got.value.shape(), want.value.shape());
    for (int64_t i = 0; i < got.value.numel(); ++i) {
      ASSERT_EQ(std::memcmp(&got.value.data()[static_cast<size_t>(i)],
                            &want.value.data()[static_cast<size_t>(i)],
                            sizeof(float)),
                0)
          << "value elem " << i;
    }
    for (size_t gi = 0; gi < got.grads.size(); ++gi) {
      for (int64_t i = 0; i < got.grads[gi].numel(); ++i) {
        ASSERT_EQ(std::memcmp(&got.grads[gi].data()[static_cast<size_t>(i)],
                              &want.grads[gi].data()[static_cast<size_t>(i)],
                              sizeof(float)),
                  0)
            << "grad " << gi << " elem " << i;
      }
    }
  };

  // NN: a [5, 3] x b [3, 4].
  expect_same(run([&] { return MatMul(a, b); }),
              run([&] { return Transpose(Transpose(MatMul(a, b))); }));
  // NT: a [5, 3] x (bᵀ [3, 4])ᵀ — composition materializes Transpose(bᵀ).
  Tensor bt = Transpose(b);  // [4, 3], shares b's requires_grad chain
  expect_same(run([&] { return MatMulNT(a, bt); }),
              run([&] { return MatMul(a, Transpose(bt)); }));
  // TN: (aᵀ [3, 5])ᵀ x b — composition materializes Transpose(aᵀ).
  Tensor at = Transpose(a);  // [3, 5]
  expect_same(run([&] { return MatMulTN(at, b); }),
              run([&] { return MatMul(Transpose(at), b); }));
}

TEST(AutodiffTest, MatMulFamilySkipsGradExpressionsForConstantInputs) {
  // A backward closure builds only the input grads its NeedsGrad mask asks
  // for and leaves the others undefined (tensor.h's BackwardFn contract).
  // Grad's mask is false for an input that does not require grad, and also
  // for one that reaches no requested input — so θ, which keeps
  // requires_grad during test-time adaptation, costs no GEMM when Grad asks
  // only for φ (ThetaGradientsAreNeverBuiltForAPhiOnlyGrad pins that end to
  // end).  The first three cases pass the mask Grad computes for a frozen
  // operand; the last passes a mask that drops a trainable one.
  Tensor ones = Tensor::Ones(Shape{2, 4});
  {
    Tensor a = RandTensor(Shape{2, 3}, 93);
    Tensor b = RandTensor(Shape{3, 4}, 94);
    b.set_requires_grad(false);
    Tensor c = MatMul(a, b);
    auto grads = c.node()->backward(c, ones, {true, false});
    ASSERT_EQ(grads.size(), 2u);
    EXPECT_TRUE(grads[0].defined());
    EXPECT_FALSE(grads[1].defined());
  }
  {
    Tensor a = RandTensor(Shape{2, 3}, 95);
    a.set_requires_grad(false);
    Tensor b = RandTensor(Shape{4, 3}, 96);
    Tensor c = MatMulNT(a, b);
    auto grads = c.node()->backward(c, ones, {false, true});
    EXPECT_FALSE(grads[0].defined());
    EXPECT_TRUE(grads[1].defined());
  }
  {
    Tensor a = RandTensor(Shape{3, 2}, 97);
    Tensor b = RandTensor(Shape{3, 4}, 98);
    b.set_requires_grad(false);
    Tensor c = MatMulTN(a, b);
    auto grads = c.node()->backward(c, ones, {true, false});
    EXPECT_TRUE(grads[0].defined());
    EXPECT_FALSE(grads[1].defined());
  }
  {
    Tensor a = RandTensor(Shape{2, 3}, 101);
    Tensor b = RandTensor(Shape{3, 4}, 102);  // requires grad, not needed
    Tensor c = MatMul(a, b);
    auto grads = c.node()->backward(c, ones, {true, false});
    EXPECT_TRUE(grads[0].defined());
    EXPECT_FALSE(grads[1].defined());
  }
  // End-to-end: Grad through a frozen-weight product still works and matches
  // the analytic value dL/da = 1·bᵀ for L = sum(a·b).
  Tensor a = RandTensor(Shape{2, 3}, 99);
  Tensor b = RandTensor(Shape{3, 4}, 100);
  b.set_requires_grad(false);
  auto g = Grad(SumAll(MatMul(a, b)), {a});
  Tensor expected = MatMulNT(Tensor::Ones(Shape{2, 4}), b);
  for (int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_FLOAT_EQ(g[0].at(i), expected.at(i)) << "element " << i;
  }
}

TEST(AutodiffTest, BackwardClosuresBuildOnlyTheGradsTheMaskAsks) {
  // Both operands of every two-input op require grad; the closure must still
  // leave an input the NeedsGrad mask drops undefined.
  Tensor a = RandTensor(Shape{2, 3}, 103);
  Tensor b = RandTensor(Shape{2, 3}, 104);
  Tensor cond = Tensor::FromData(Shape{2, 1}, {1.0f, 0.0f});
  struct Case {
    const char* name;
    Tensor out;
  };
  const Case cases[] = {
      {"add", Add(a, b)},          {"sub", Sub(a, b)},
      {"mul", Mul(a, b)},          {"div", Div(a, b)},
      {"where", Where(cond, a, b)}, {"concat", Concat({a, b}, 1)},
      {"matmul_nt", MatMulNT(a, b)},
  };
  for (const Case& c : cases) {
    const Tensor ones = Tensor::Ones(c.out.shape());
    for (int keep = 0; keep < 2; ++keep) {
      const NeedsGrad needs = {keep == 0, keep == 1};
      std::vector<Tensor> grads = c.out.node()->backward(c.out, ones, needs);
      ASSERT_EQ(grads.size(), 2u) << c.name;
      EXPECT_EQ(grads[0].defined(), keep == 0) << c.name;
      EXPECT_EQ(grads[1].defined(), keep == 1) << c.name;
    }
  }
}

TEST(AutodiffTest, ThetaGradientsAreNeverBuiltForAPhiOnlyGrad) {
  // The test-time φ-step: Grad w.r.t. φ through FiLM, the emission Linear and
  // the batched CRF NLL, while θ (every module parameter) still requires
  // grad.  Grad's eval-mode backward takes every gradient buffer from the
  // thread's WorkspaceArena, so the acquires it makes count the gradient
  // expressions it builds.  With θ trainable they must equal the count with
  // θ frozen, where the mask drops every θ input (the test above): not one
  // dW, bias or transition gradient is built.  φ's gradient is the same bits
  // either way.
  const int64_t context = 6, features = 10, tags = 5, lanes = 3, max_len = 4;
  util::Rng rng(17);
  nn::FilmGenerator film(context, features, &rng);
  nn::Linear emit(features, tags, &rng);
  crf::LinearChainCrf crf(tags);
  const Tensor h = RandTensor(Shape{lanes * max_len, features}, 18);
  const std::vector<int64_t> lengths = {4, 2, 3};
  std::vector<int64_t> gold(static_cast<size_t>(lanes * max_len));
  for (size_t i = 0; i < gold.size(); ++i) gold[i] = static_cast<int64_t>(i * 7 % tags);
  const Tensor phi0 = RandTensor(Shape{context}, 19, 0.1f);

  struct Run {
    uint64_t acquires;
    Tensor dphi;
  };
  auto run = [&](bool theta_trainable) {
    std::vector<Tensor*> theta;
    for (nn::Module* m : std::initializer_list<nn::Module*>{&film, &emit, &crf}) {
      for (Tensor* p : m->Parameters()) theta.push_back(p);
    }
    for (Tensor* p : theta) p->set_requires_grad(theta_trainable);
    Tensor phi = Tensor::FromData(phi0.shape(), phi0.data(), /*requires_grad=*/true);
    Tensor emissions = Reshape(emit.Forward(film.Forward(h, phi)),
                               Shape{lanes, max_len, tags});
    Tensor loss = SumAll(crf.NegLogLikelihoodBatch(emissions, gold, lengths));
    const WorkspaceArena& arena = WorkspaceArena::ThreadLocal();
    const uint64_t before = arena.reuse_count() + arena.alloc_count();
    std::vector<Tensor> g = Grad(loss, {phi});
    const uint64_t acquires = arena.reuse_count() + arena.alloc_count() - before;
    for (Tensor* p : theta) p->set_requires_grad(true);
    return Run{acquires, g[0]};
  };
  const Run frozen = run(false);
  const Run trainable = run(true);
  EXPECT_GT(frozen.acquires, 0u);
  EXPECT_EQ(trainable.acquires, frozen.acquires)
      << "a φ-only Grad built gradient expressions for θ";
  ASSERT_EQ(trainable.dphi.numel(), context);
  EXPECT_EQ(std::memcmp(trainable.dphi.data().data(), frozen.dphi.data().data(),
                        static_cast<size_t>(context) * sizeof(float)),
            0);
}

TEST(SecondOrderTest, ThroughMatMulNTChain) {
  // Same quadratic-in-w check as ThroughMatMulChain, but the product is
  // expressed with MatMulNT so the second-order path exercises the
  // NT -> {NN, TN} backward closure chain.
  Tensor x = RandTensor(Shape{4, 3}, 84);
  x.set_requires_grad(false);
  Tensor w = RandTensor(Shape{2, 3}, 85);  // [n, k] for NT

  auto first_grad_sum = [&](const Tensor& wt) {
    Tensor loss = SumAll(Square(MatMulNT(x, wt)));
    auto g = Grad(loss, {wt}, /*create_graph=*/true);
    return SumAll(g[0]);
  };

  Tensor gg_sum = first_grad_sum(w);
  auto second = Grad(gg_sum, {w});

  const float eps = 1e-3f;
  for (int64_t i = 0; i < w.numel(); ++i) {
    std::vector<float> plus = w.data(), minus = w.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    Tensor wp = Tensor::FromData(w.shape(), plus, true);
    Tensor wm = Tensor::FromData(w.shape(), minus, true);
    const float numeric =
        (first_grad_sum(wp).item() - first_grad_sum(wm).item()) / (2 * eps);
    EXPECT_NEAR(second[0].at(i), numeric, 5e-2f) << "element " << i;
  }
}

TEST(GradCheckTest, ShapeOps) {
  CheckGradient(
      [](const Tensor& x) { return SumAll(Square(Transpose(Reshape(x, Shape{2, 3})))); },
      RandTensor(Shape{6}, 30));
  CheckGradient(
      [](const Tensor& x) { return SumAll(Square(BroadcastTo(x, Shape{4, 3}))); },
      RandTensor(Shape{3}, 31));
  CheckGradient([](const Tensor& x) { return SumAll(Square(SumTo(x, Shape{3}))); },
                RandTensor(Shape{4, 3}, 32));
  CheckGradient(
      [](const Tensor& x) { return SumAll(Square(Slice(x, 0, 1, 2))); },
      RandTensor(Shape{4, 2}, 33));
  CheckGradient(
      [](const Tensor& x) {
        return SumAll(Square(Concat({x, MulScalar(x, 2.0f)}, 1)));
      },
      RandTensor(Shape{2, 2}, 34));
}

TEST(GradCheckTest, Reductions) {
  CheckGradient([](const Tensor& x) { return Square(SumAll(x)); },
                RandTensor(Shape{4}, 40));
  CheckGradient([](const Tensor& x) { return SumAll(Square(SumAxis(x, 0, false))); },
                RandTensor(Shape{3, 2}, 41));
  CheckGradient([](const Tensor& x) { return SumAll(Square(SumAxis(x, 1, true))); },
                RandTensor(Shape{3, 2}, 42));
}

TEST(GradCheckTest, MaxAxisAwayFromTies) {
  Tensor x = Tensor::FromData(Shape{2, 3}, {1.0f, 5.0f, 2.0f, 9.0f, 3.0f, 4.0f}, true);
  CheckGradient([](const Tensor& t) { return SumAll(Square(MaxAxis(t, 1, false))); }, x);
}

TEST(GradCheckTest, GatherScatter) {
  CheckGradient(
      [](const Tensor& x) {
        return SumAll(Square(IndexSelectRows(x, {0, 2, 2, 1})));
      },
      RandTensor(Shape{3, 2}, 50));
  CheckGradient(
      [](const Tensor& x) { return SumAll(Square(ScatterAddRows(x, {1, 1, 0}, 4))); },
      RandTensor(Shape{3, 2}, 51));
}

TEST(GradCheckTest, UnfoldFold) {
  CheckGradient(
      [](const Tensor& x) { return SumAll(Square(UnfoldTimeBatch(x, 3))); },
      RandTensor(Shape{1, 5, 2}, 60));
  CheckGradient(
      [](const Tensor& x) { return SumAll(Square(FoldTimeBatch(x, 2))); },
      RandTensor(Shape{1, 3, 4}, 61));
}

TEST(GradCheckTest, SoftmaxFamily) {
  CheckGradient([](const Tensor& x) { return SumAll(Square(LogSumExpLastDim(x))); },
                RandTensor(Shape{2, 4}, 70));
  CheckGradient(
      [](const Tensor& x) {
        Tensor lp = LogSoftmaxLastDim(x);
        return Neg(SumAll(Slice(lp, 1, 0, 1)));  // NLL of class 0 per row
      },
      RandTensor(Shape{3, 4}, 71));
  CheckGradient([](const Tensor& x) { return SumAll(Square(SoftmaxLastDim(x))); },
                RandTensor(Shape{2, 3}, 72));
}

// --- second order ---

TEST(SecondOrderTest, QuadraticHessianIsConstant) {
  // loss = sum(x^3); first grad = 3x^2; d(sum(first_grad))/dx = 6x.
  Tensor x = Tensor::FromData(Shape{3}, {1.0f, 2.0f, -1.0f}, true);
  Tensor loss = SumAll(Mul(Mul(x, x), x));
  auto g1 = Grad(loss, {x}, /*create_graph=*/true);
  Tensor g1_sum = SumAll(g1[0]);
  auto g2 = Grad(g1_sum, {x});
  EXPECT_NEAR(g2[0].at(0), 6.0f, 1e-4);
  EXPECT_NEAR(g2[0].at(1), 12.0f, 1e-4);
  EXPECT_NEAR(g2[0].at(2), -6.0f, 1e-4);
}

TEST(SecondOrderTest, ThroughSigmoid) {
  // f(x) = sigmoid(x); f'' = f'(1 - 2f).  Check at x = 0.7.
  Tensor x = Tensor::Scalar(0.7f, true);
  Tensor y = Sigmoid(x);
  auto g1 = Grad(y, {x}, true);
  auto g2 = Grad(g1[0], {x});
  const double s = 1.0 / (1.0 + std::exp(-0.7));
  const double expected = s * (1 - s) * (1 - 2 * s);
  EXPECT_NEAR(g2[0].item(), expected, 1e-4);
}

TEST(SecondOrderTest, ThroughMatMulChain) {
  // loss(w) = sum((x w)^2) is quadratic in w; the grad of grad-sum is constant
  // and can be checked against finite differences of the first gradient.
  Tensor x = RandTensor(Shape{4, 3}, 80);
  x.set_requires_grad(false);
  Tensor w = RandTensor(Shape{3, 2}, 81);

  auto first_grad_sum = [&](const Tensor& wt) {
    Tensor loss = SumAll(Square(MatMul(x, wt)));
    auto g = Grad(loss, {wt}, /*create_graph=*/true);
    return SumAll(g[0]);
  };

  Tensor gg_sum = first_grad_sum(w);
  auto second = Grad(gg_sum, {w});

  const float eps = 1e-3f;
  for (int64_t i = 0; i < w.numel(); ++i) {
    std::vector<float> plus = w.data(), minus = w.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    Tensor wp = Tensor::FromData(w.shape(), plus, true);
    Tensor wm = Tensor::FromData(w.shape(), minus, true);
    const float numeric =
        (first_grad_sum(wp).item() - first_grad_sum(wm).item()) / (2 * eps);
    EXPECT_NEAR(second[0].at(i), numeric, 5e-2f) << "element " << i;
  }
}

TEST(SecondOrderTest, MamlStyleInnerStepGradient) {
  // theta' = theta - a * dL_spt/dtheta with L_spt = 0.5 * (theta * s)^2,
  // L_qry(theta') = 0.5 * (theta' * q)^2.  Analytic meta-gradient:
  //   theta' = theta (1 - a s^2), dL_qry/dtheta = q^2 theta (1 - a s^2)^2.
  const float s = 1.3f, q = 0.8f, a = 0.1f, theta0 = 2.0f;
  Tensor theta = Tensor::Scalar(theta0, true);
  Tensor spt_loss = MulScalar(Square(MulScalar(theta, s)), 0.5f);
  auto inner = Grad(spt_loss, {theta}, /*create_graph=*/true);
  Tensor theta_prime = Sub(theta, MulScalar(inner[0], a));
  Tensor qry_loss = MulScalar(Square(MulScalar(theta_prime, q)), 0.5f);
  auto meta = Grad(qry_loss, {theta});
  const float factor = 1.0f - a * s * s;
  EXPECT_NEAR(meta[0].item(), q * q * theta0 * factor * factor, 1e-4);
}

TEST(SecondOrderTest, FirstOrderApproximationDiffers) {
  // Same setup as above but with the inner gradient detached (FOMAML).  The
  // result must equal q^2 * theta' * (1) * ... i.e. missing one (1 - a s^2)
  // factor — demonstrating that create_graph genuinely changes the result.
  const float s = 1.3f, q = 0.8f, a = 0.1f, theta0 = 2.0f;
  Tensor theta = Tensor::Scalar(theta0, true);
  Tensor spt_loss = MulScalar(Square(MulScalar(theta, s)), 0.5f);
  auto inner = Grad(spt_loss, {theta}, /*create_graph=*/false);
  Tensor theta_prime = Sub(theta, MulScalar(inner[0], a));
  Tensor qry_loss = MulScalar(Square(MulScalar(theta_prime, q)), 0.5f);
  auto meta = Grad(qry_loss, {theta});
  const float factor = 1.0f - a * s * s;
  EXPECT_NEAR(meta[0].item(), q * q * theta0 * factor, 1e-4);
  EXPECT_GT(std::abs(meta[0].item() - q * q * theta0 * factor * factor), 1e-3);
}

TEST(AutodiffTest, GraphSizeCountsNodes) {
  Tensor x = Tensor::Ones(Shape{2}, true);
  EXPECT_EQ(autodiff::GraphSize(x), 1);
  Tensor y = Add(Square(x), x);
  EXPECT_EQ(autodiff::GraphSize(y), 3);  // x, square(=mul), add
}

/// Bitwise equality of two gradient lists.
void ExpectSameGradBits(const std::vector<Tensor>& a, const std::vector<Tensor>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape()) << what << " input " << i;
    EXPECT_EQ(std::memcmp(a[i].data().data(), b[i].data().data(),
                          a[i].data().size() * sizeof(float)),
              0)
        << what << " input " << i;
  }
}

TEST(AutodiffTest, SeededGradIsTheVectorJacobianProduct) {
  util::Rng rng(77);
  Tensor x = Tensor::Randn(Shape{3, 4}, &rng, 1.0f, true);
  Tensor w = Tensor::Randn(Shape{4, 5}, &rng, 1.0f, true);
  Tensor out = Tanh(MatMul(x, w));  // [3, 5]
  Tensor loss = SumAll(Mul(out, out));

  // A seed of ones on a scalar output is the unseeded call.
  ExpectSameGradBits(Grad(loss, {x, w}, false, Tensor::Ones(loss.shape())),
                     Grad(loss, {x, w}), "ones seed");

  // Any seed (signed zeros included) equals Grad of Σ out ⊙ seed, in eval
  // mode and with create_graph.
  std::vector<float> seed_values(15);
  for (float& v : seed_values) v = static_cast<float>(rng.Gaussian());
  seed_values[3] = 0.0f;
  seed_values[7] = -0.0f;
  Tensor seed = Tensor::FromData(out.shape(), seed_values);
  Tensor folded = SumAllFloat(Mul(out, seed));
  for (bool create_graph : {false, true}) {
    ExpectSameGradBits(Grad(out, {x, w}, create_graph, seed),
                       Grad(folded, {x, w}, create_graph),
                       create_graph ? "seeded, create_graph" : "seeded");
  }

  // With create_graph a graph-node seed stays differentiable: d/ds of
  // Σ (seedᵀ·∂out/∂x) is the same as differentiating the folded form.
  Tensor s = Tensor::FromData(out.shape(), seed_values, /*requires_grad=*/true);
  Tensor vjp = Grad(out, {x}, /*create_graph=*/true, s)[0];
  Tensor vjp_folded = Grad(SumAllFloat(Mul(out, s)), {x}, /*create_graph=*/true)[0];
  ExpectSameGradBits(Grad(SumAll(Square(vjp)), {s, w}),
                     Grad(SumAll(Square(vjp_folded)), {s, w}), "second order");
}

TEST(AutodiffTest, GradContributionsFoldToTheSeededGrad) {
  // x reaches out through four edges: Tanh, both operands of x ⊙ x, and
  // tanh(x) ⊙ x.  GradContributions lists one grad per edge, and their left
  // fold with Add is the seeded create_graph Grad, bit for bit.
  util::Rng rng(79);
  Tensor x = Tensor::Randn(Shape{3, 4}, &rng, 1.0f, true);
  Tensor unused = Tensor::Randn(Shape{2}, &rng, 1.0f, true);
  Tensor a = Tanh(x);
  Tensor out = Add(Add(a, Mul(x, x)), Mul(a, x));
  std::vector<float> seed_values(12);
  for (float& v : seed_values) v = static_cast<float>(rng.Gaussian());
  seed_values[5] = -0.0f;
  Tensor seed = Tensor::FromData(out.shape(), seed_values);
  const auto lists = autodiff::GradContributions(out, {x, unused}, seed);
  ASSERT_EQ(lists.size(), 2u);
  ASSERT_EQ(lists[0].size(), 4u);
  EXPECT_TRUE(lists[1].empty());
  Tensor folded = lists[0][0];
  for (size_t i = 1; i < lists[0].size(); ++i) folded = Add(folded, lists[0][i]);
  ExpectSameGradBits({folded}, {Grad(out, {x}, /*create_graph=*/true, seed)[0]}, "folded");
  EXPECT_TRUE(folded.requires_grad());
}

TEST(AutodiffTest, SeededGradStopsAtItsInputs) {
  // out = tanh(x) ⊙ x.  Seeded, Grad treats {x, h = tanh(x)} as independent
  // variables: x gets only its direct path, seed ⊙ h, and nothing through h.
  // The unseeded form over the same graph keeps the total derivative.
  util::Rng rng(78);
  Tensor x = Tensor::Randn(Shape{4}, &rng, 1.0f, true);
  Tensor h = Tanh(x);
  Tensor out = Mul(h, x);
  Tensor seed = Tensor::Randn(Shape{4}, &rng);
  const auto grads = Grad(out, {x, h}, false, seed);
  ExpectSameGradBits({grads[0], grads[1]}, {Mul(seed, h), Mul(seed, x)},
                     "seeded, stopped at inputs");
  const auto total = Grad(SumAllFloat(Mul(out, seed)), {x, h});
  ExpectSameGradBits({total[1]}, {grads[1]}, "dh");
  double through_h = 0.0;
  for (int64_t i = 0; i < 4; ++i) through_h += std::abs(total[0].at(i) - grads[0].at(i));
  EXPECT_GT(through_h, 1e-3);
}

TEST(AutodiffDeathTest, SeededGradRejectsAMismatchedSeed) {
  Tensor x = Tensor::Ones(Shape{2, 3}, true);
  Tensor out = Mul(x, x);
  EXPECT_DEATH(Grad(out, {x}, false, Tensor::Ones(Shape{3, 2})),
               "Grad seed shape \\[3, 2\\] does not match output shape \\[2, 3\\]");
  EXPECT_DEATH(Grad(out, {x}), "Grad expects a scalar loss");
}

TEST(AutodiffTest, DeepChainDoesNotOverflow) {
  Tensor x = Tensor::Scalar(0.001f, true);
  Tensor y = x;
  for (int i = 0; i < 4000; ++i) y = AddScalar(y, 0.0001f);
  auto g = Grad(SumAll(y), {x});
  EXPECT_FLOAT_EQ(g[0].item(), 1.0f);
}


// ----- the walk's folds -----------------------------------------------------

/// A fused node that passes its grad straight through to every input: its
/// closure returns the one upstream tensor once per input.  The value is the
/// sum of the inputs.
Tensor PassThrough(const std::vector<Tensor>& inputs) {
  const Shape shape = inputs[0].shape();
  return CustomOp(
      "pass_through", shape,
      [&](float* out) {
        for (int64_t i = 0; i < shape.numel(); ++i) {
          float v = 0.0f;
          for (const Tensor& in : inputs) v += in.at(i);
          out[i] = v;
        }
      },
      inputs,
      [](const Tensor& self, const Tensor& grad, const NeedsGrad&) {
        return std::vector<Tensor>(self.node()->inputs.size(), grad);
      });
}

/// The values of `t`, copied.
std::vector<float> Snapshot(const Tensor& t) { return t.data(); }

void ExpectBits(const Tensor& t, const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(t.data().size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(t.data().data(), want.data(), want.size() * sizeof(float)), 0)
      << what;
}

TEST(AutodiffTest, InPlaceFoldNeverWritesASharedGrad) {
  // Every case hands one grad tensor to several accumulators (Add's backward,
  // pass-through nodes, a closure returning its upstream grad twice) and then
  // folds more grads into them, three or more arrivals per input, so the
  // first-order walk allocates and folds in place.  Small integers keep every
  // sum exact.  The first-order grads must equal the closed form and the
  // detached create_graph grads, and nothing the caller holds (the seed, the
  // leaves, the forward values, grads returned earlier) may change.
  const Shape shape{4};
  const Tensor x = Tensor::FromData(shape, {1.0f, -2.0f, 3.0f, 0.5f}, true);
  const Tensor y = Tensor::FromData(shape, {2.0f, 1.0f, -1.0f, 4.0f}, true);
  const Tensor seed = Tensor::FromData(shape, {1.0f, 2.0f, -3.0f, 0.25f});
  auto times = [&](const Tensor& t, float c) {
    std::vector<float> v = t.data();
    for (float& e : v) e *= c;
    return v;
  };
  struct Case {
    std::string name;
    Tensor out;
    std::vector<Tensor> inputs;
    std::vector<std::vector<float>> want;
    /// The unseeded grads of Σ out ⊙ seed, when they differ from `want`
    /// (a seeded Grad does not walk past its inputs).
    std::vector<std::vector<float>> want_total = {};
  };
  std::vector<Case> cases;
  {
    // Add(x, x), twice more through x: dx = 4·seed.
    Tensor out = Add(Add(Add(x, x), x), x);
    cases.push_back({"Add(x, x)", out, {x}, {times(seed, 4.0f)}});
  }
  {
    // A chain of pass-through nodes, each also read directly: every node's
    // first grad is the seed itself.
    Tensor p1 = PassThrough({x});
    Tensor p2 = PassThrough({p1});
    Tensor p3 = PassThrough({p2});
    Tensor out = Add(Add(p3, p1), Add(p2, x));
    cases.push_back({"pass-through chain", out, {x}, {times(seed, 4.0f)}});
  }
  {
    // A closure that returns its upstream grad to two inputs, which then take
    // more folds: dx = 2·seed, dy = 3·seed.
    Tensor f = PassThrough({x, y});
    Tensor out = Add(Add(f, x), Add(y, y));
    cases.push_back({"one grad to two inputs", out, {x, y}, {times(seed, 2.0f), times(seed, 3.0f)}});
  }
  {
    // A requested input that is also an interior node: h = x + x is read
    // three times and x once more, so dh = 3·seed; seeded, x gets only its
    // direct seed, and unseeded dx = 2·dh + seed.
    Tensor h = Add(x, x);
    Tensor out = Add(Add(Add(h, h), PassThrough({h})), x);
    cases.push_back({"requested interior node", out, {h, x},
                     {times(seed, 3.0f), times(seed, 1.0f)},
                     {times(seed, 3.0f), times(seed, 7.0f)}});
  }
  for (const Case& c : cases) {
    const std::vector<float> seed_bits = Snapshot(seed);
    const std::vector<float> x_bits = Snapshot(x);
    const std::vector<float> y_bits = Snapshot(y);
    const std::vector<float> out_bits = Snapshot(c.out);
    const std::vector<Tensor> graph = Grad(c.out, c.inputs, /*create_graph=*/true, seed);
    std::vector<std::vector<float>> graph_bits;
    for (const Tensor& g : graph) graph_bits.push_back(Snapshot(g));
    const std::vector<Tensor> first = Grad(c.out, c.inputs, /*create_graph=*/false, seed);
    const std::vector<Tensor> again = Grad(c.out, c.inputs, /*create_graph=*/false, seed);
    // Unseeded, over Σ out ⊙ seed: the walk's own ones-seed, then a Mul.
    const std::vector<Tensor> unseeded = Grad(SumAllFloat(Mul(c.out, seed)), c.inputs);
    ASSERT_EQ(first.size(), c.want.size()) << c.name;
    for (size_t i = 0; i < first.size(); ++i) {
      const std::string what = c.name + " input " + std::to_string(i);
      ExpectBits(first[i], c.want[i], what + " first order");
      ExpectBits(again[i], c.want[i], what + " second run");
      ExpectBits(unseeded[i], c.want_total.empty() ? c.want[i] : c.want_total[i],
                 what + " unseeded");
      ExpectBits(graph[i], graph_bits[i], what + " create_graph grad kept");
      ExpectBits(graph[i], c.want[i], what + " create_graph");
    }
    ExpectBits(seed, seed_bits, c.name + " seed");
    ExpectBits(x, x_bits, c.name + " x");
    ExpectBits(y, y_bits, c.name + " y");
    ExpectBits(c.out, out_bits, c.name + " output");
  }
}

constexpr int64_t kWordVocab = 40;
constexpr int64_t kCharVocab = 20;

models::EncodedSentence RandomSentence(util::Rng* rng, int64_t length,
                                       const std::vector<bool>& valid_tags) {
  models::EncodedSentence s;
  for (int64_t t = 0; t < length; ++t) {
    s.word_ids.push_back(
        static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(kWordVocab))));
    std::vector<int64_t> ids;
    const int64_t chars = 1 + static_cast<int64_t>(rng->UniformInt(6));
    for (int64_t c = 0; c < chars; ++c) {
      ids.push_back(static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(kCharVocab))));
    }
    s.char_ids.push_back(std::move(ids));
    int64_t tag;
    do {
      tag = static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(valid_tags.size())));
    } while (!valid_tags[static_cast<size_t>(tag)]);
    s.tags.push_back(tag);
  }
  return s;
}

/// A small CNN-BiGRU-CRF backbone with dropout on.
models::BackboneConfig SmallTrainingConfig(models::Conditioning conditioning) {
  models::BackboneConfig config;
  config.word_vocab_size = kWordVocab;
  config.char_vocab_size = kCharVocab;
  config.word_dim = 8;
  config.char_dim = 5;
  config.filters_per_width = 3;
  config.hidden_dim = 6;
  config.encoder = models::EncoderKind::kBiGru;
  config.max_tags = text::NumTags(4);
  config.context_dim = 6;
  config.conditioning = conditioning;
  config.dropout = 0.3f;
  return config;
}

/// One training task's query loss after two second-order inner steps, as
/// Fewner::Train (or Maml::Train, with `maml`) builds it: dropout on, and
/// support and query sets of four ragged sentences each, packed into two
/// lane runs that share the BiGRU cells.  θ are the backbone's parameters.
Tensor TrainingQueryLoss(models::Backbone* net, bool maml, uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<bool> valid_tags = text::ValidTagMask(4, net->config().max_tags);
  std::vector<models::EncodedSentence> support, query;
  for (int64_t len : {6, 5, 1, 2}) support.push_back(RandomSentence(&rng, len, valid_tags));
  for (int64_t len : {2, 7, 6, 1}) query.push_back(RandomSentence(&rng, len, valid_tags));
  net->SetTraining(true);
  net->ReseedDropout(seed);
  if (!maml) {
    Tensor phi = meta::Fewner::AdaptContextOn(*net, support, valid_tags, /*steps=*/2, 0.1f,
                                              /*create_graph=*/true);
    return net->BatchLoss(models::PackBatch(query), phi, valid_tags);
  }
  std::vector<Tensor> adapted = meta::Maml::InnerAdaptOn(net, support, valid_tags,
                                                         /*steps=*/2, 0.1f,
                                                         /*create_graph=*/true);
  nn::ParameterPatch patch(net->Parameters(), adapted);
  return net->BatchLoss(models::PackBatch(query), Tensor(), valid_tags);
}

TEST(AutodiffTest, FirstOrderGradEqualsDetachedCreateGraphGrad) {
  // The outer meta-gradient of FEWNER (FiLM and kConcat) and MAML.  The
  // first-order walk folds in place and through the GRU op's fold handle
  // (from its BPTT kernel's scratch); the create_graph walk folds with Add
  // nodes and differentiates the composites.  Every θ's bits must agree.
  struct Method {
    const char* name;
    models::Conditioning conditioning;
    bool maml;
  };
  for (const Method& m : {Method{"FEWNER FiLM", models::Conditioning::kFilm, false},
                          Method{"FEWNER kConcat", models::Conditioning::kConcat, false},
                          Method{"MAML", models::Conditioning::kNone, true}}) {
    util::Rng init(0xF01D);
    models::Backbone net(SmallTrainingConfig(m.conditioning), &init);
    const std::vector<Tensor> theta = nn::ParameterTensors(&net);
    std::vector<std::string> names;
    for (const auto& [name, slot] : net.NamedParameters()) names.push_back(name);
    const Tensor loss = TrainingQueryLoss(&net, m.maml, 0x51);
    const std::vector<Tensor> first = Grad(loss, theta);
    const std::vector<Tensor> graph = Grad(loss, theta, /*create_graph=*/true);
    ASSERT_EQ(first.size(), graph.size());
    for (size_t i = 0; i < theta.size(); ++i) {
      const Tensor detached = graph[i].Detach();
      ASSERT_EQ(first[i].shape(), detached.shape()) << m.name << " " << names[i];
      EXPECT_EQ(std::memcmp(first[i].data().data(), detached.data().data(),
                            detached.data().size() * sizeof(float)),
                0)
          << m.name << " d" << names[i];
    }
  }
}

TEST(AutodiffTest, FirstOrderFoldAllocatesOncePerFannedInNode) {
  // A first-order Grad of one training query loss allocates at most one fold
  // buffer per node that receives two or more grads.  Arrivals are counted
  // from the graph: one per consumer edge, and one per step for the w_hh and
  // b_hh inputs of a gru_recurrence_kernel node, whose closure folds a grad
  // per step into them.
  util::Rng init(0xF01D);
  models::Backbone net(SmallTrainingConfig(models::Conditioning::kFilm), &init);
  const std::vector<Tensor> theta = nn::ParameterTensors(&net);
  const Tensor loss = TrainingQueryLoss(&net, /*maml=*/false, 0x52);
  std::unordered_map<const internal::Node*, int64_t> arrivals;
  std::vector<Tensor> stack{loss};
  std::unordered_map<const internal::Node*, bool> seen{{loss.node(), true}};
  while (!stack.empty()) {
    const Tensor t = stack.back();
    stack.pop_back();
    const std::vector<Tensor>& inputs = t.node()->inputs;
    const bool kernel = std::string(t.op_name()) == "gru_recurrence_kernel";
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!inputs[i].requires_grad()) continue;
      arrivals[inputs[i].node()] += kernel && i > 0 ? t.shape().dim(1) : 1;
      if (seen.emplace(inputs[i].node(), true).second) stack.push_back(inputs[i]);
    }
  }
  int64_t fanned_in = 0;
  for (const auto& [node, count] : arrivals) fanned_in += count >= 2 ? 1 : 0;

  Grad(loss, theta);
  const autodiff::GradStats stats = autodiff::LastGradStats();
  std::cout << "first-order Grad of a training query loss: " << stats.nodes_walked
            << " nodes walked, " << stats.folds << " folds, " << stats.fold_buffers
            << " fold buffers, " << fanned_in << " fanned-in nodes\n";
  EXPECT_GT(stats.nodes_walked, 0);
  EXPECT_GT(stats.fold_buffers, 0);
  EXPECT_GT(stats.folds, stats.fold_buffers);
  EXPECT_LE(stats.fold_buffers, fanned_in);
}

}  // namespace
}  // namespace fewner::tensor
