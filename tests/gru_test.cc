// Tests for the fused GRU recurrence (nn::GruCell::Recurrence / RunBatch):
// its forward, first-order and create_graph backwards and second-order grads
// memcmp'd against the composite definition built op for op from
// GruCell::Step, and the argument checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/gru.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::autodiff::Grad;

/// The recurrence's definition, op for op: a zero state, one Step per
/// timestep, an exact Where carry on ragged steps, Concat in textual order.
Tensor CompositeRecurrence(const GruCell& cell, const Tensor& projected,
                           const std::vector<Tensor>& masks, const std::vector<bool>& full,
                           bool reverse) {
  const int64_t lanes = projected.shape().dim(0);
  const int64_t length = projected.shape().dim(1);
  const int64_t hd = cell.hidden_dim();
  Tensor h = Tensor::Zeros(Shape{lanes, hd});
  std::vector<Tensor> states(static_cast<size_t>(length));
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = reverse ? length - 1 - step : step;
    Tensor rows = tensor::Reshape(tensor::Slice(projected, 1, t, 1), Shape{lanes, 3 * hd});
    Tensor h_new = cell.Step(rows, h);
    h = full[static_cast<size_t>(t)] ? h_new
                                     : tensor::Where(masks[static_cast<size_t>(t)], h_new, h);
    states[static_cast<size_t>(t)] = tensor::Reshape(h, Shape{lanes, 1, hd});
  }
  return tensor::Concat(states, 1);
}

/// RunBatch's definition: the hoisted projection, then the composite.
Tensor CompositeRunBatch(const GruCell& cell, const Tensor& x,
                         const std::vector<Tensor>& masks, const std::vector<bool>& full,
                         bool reverse) {
  const int64_t lanes = x.shape().dim(0);
  const int64_t length = x.shape().dim(1);
  Tensor projected = cell.ProjectInput(
      tensor::Reshape(x, Shape{lanes * length, x.shape().dim(2)}));
  return CompositeRecurrence(
      cell, tensor::Reshape(projected, Shape{lanes, length, 3 * cell.hidden_dim()}), masks,
      full, reverse);
}

void ExpectSameBits(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto& av = a.data();
  const auto& bv = b.data();
  for (size_t i = 0; i < av.size(); ++i) {
    if (std::memcmp(&av[i], &bv[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " is " << av[i] << " vs " << bv[i]
                    << " (signbits " << std::signbit(av[i]) << "/" << std::signbit(bv[i])
                    << ")";
      return;
    }
  }
}

/// A Gaussian draw that is +0 or −0 one time in eight each.
float DrawWithZeros(util::Rng* rng, double stddev) {
  switch (rng->UniformInt(8)) {
    case 0:
      return 0.0f;
    case 1:
      return -0.0f;
    default:
      return static_cast<float>(rng->Gaussian(0.0, stddev));
  }
}

Tensor DrawTensor(Shape shape, util::Rng* rng, double stddev, bool requires_grad = false) {
  std::vector<float> values(static_cast<size_t>(shape.numel()));
  for (float& v : values) v = DrawWithZeros(rng, stddev);
  return Tensor::FromData(std::move(shape), std::move(values), requires_grad);
}

Tensor Param(GruCell* cell, const std::string& name) {
  for (auto& [param_name, slot] : cell->NamedParameters()) {
    if (param_name == name) return *slot;
  }
  ADD_FAILURE() << "no parameter " << name;
  return Tensor();
}

/// Lengths for instance `pattern`: all full, free, all short of max_len
/// (every lane is done before the last step), one-token lanes among full ones.
std::vector<int64_t> DrawLengths(int pattern, int64_t lanes, int64_t max_len, util::Rng* rng) {
  std::vector<int64_t> lengths(static_cast<size_t>(lanes), max_len);
  for (int64_t b = 0; b < lanes; ++b) {
    int64_t& len = lengths[static_cast<size_t>(b)];
    switch (pattern % 4) {
      case 1:
        len = 1 + static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(max_len)));
        break;
      case 2:
        len = max_len > 1 ? 1 + static_cast<int64_t>(
                                    rng->UniformInt(static_cast<uint64_t>(max_len - 1)))
                          : 1;
        break;
      case 3:
        len = b % 2 == 0 ? 1 : max_len;
        break;
      default:
        break;
    }
  }
  return lengths;
}

TEST(GruRecurrenceTest, FusedOpMatchesCompositeBitwiseOnRaggedBatches) {
  util::Rng rng(2029);
  for (int instance = 0; instance < 160; ++instance) {
    const int64_t lanes = 1 + static_cast<int64_t>(rng.UniformInt(9));    // 1..9
    const int64_t max_len = 1 + static_cast<int64_t>(rng.UniformInt(8));  // 1..8
    // 1..5, and 33 now and then: past one 32-wide GEMM panel.
    const int64_t hd = instance % 16 == 15 ? 33 : 1 + static_cast<int64_t>(rng.UniformInt(5));
    const bool reverse = instance % 2 == 1;
    GruCell cell(2, hd, &rng);
    for (Tensor* p : cell.Parameters()) {
      for (float& v : *p->mutable_data()) v = DrawWithZeros(&rng, 0.8);
    }
    std::vector<Tensor> masks;
    std::vector<bool> full;
    BuildStepMasks(DrawLengths(instance / 2, lanes, max_len, &rng), max_len, &masks, &full);
    Tensor projected =
        DrawTensor(Shape{lanes, max_len, 3 * hd}, &rng, 1.2, /*requires_grad=*/true);
    // Signed upstream weights, sometimes ±0, so each output row gets its own
    // grad and signed zeros flow through the backward.
    Tensor weights = DrawTensor(Shape{lanes, max_len, hd}, &rng, 1.0);
    Tensor weights2 = DrawTensor(Shape{lanes, max_len, hd}, &rng, 1.0);
    const std::vector<Tensor> inputs = {projected, Param(&cell, "w_hh"), Param(&cell, "b_hh")};
    const std::vector<std::string> names = {"projected", "w_hh", "b_hh"};
    const std::string where = "instance " + std::to_string(instance) + " B=" +
                              std::to_string(lanes) + " L=" + std::to_string(max_len) +
                              " H=" + std::to_string(hd) + (reverse ? " reverse" : "");
    auto op = [&] { return cell.Recurrence(projected, masks, full, reverse); };
    auto ref = [&] { return CompositeRecurrence(cell, projected, masks, full, reverse); };
    // The loss reads the output twice (out ⊙ out), so its grad expression
    // reads the forward too.
    auto loss_of = [&](const Tensor& out) {
      return tensor::SumAllFloat(tensor::Mul(tensor::Mul(out, out), weights));
    };

    ExpectSameBits(op(), ref(), "forward, " + where);
    {
      tensor::EvalMode eval;
      ExpectSameBits(op(), ref(), "eval-mode forward, " + where);
    }
    // First order: the kernel against the composite's eval-mode backward.
    const auto kernel = Grad(loss_of(op()), inputs);
    const auto reference = Grad(loss_of(ref()), inputs);
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(kernel[i], reference[i], "first-order d" + names[i] + ", " + where);
    }
    ExpectSameBits(Grad(loss_of(op()), {projected})[0], reference[0],
                   "first-order dprojected alone, " + where);
    ExpectSameBits(Grad(loss_of(op()), {inputs[1]})[0], reference[1],
                   "first-order dw_hh alone, " + where);
    // The graph branch (create_graph) gives the same values as the kernel.
    const auto graph = Grad(loss_of(op()), inputs, /*create_graph=*/true);
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(graph[i], kernel[i], "graph-branch d" + names[i] + ", " + where);
    }
    // Second order through the grads and the forward together, as an outer
    // meta-gradient reads both.
    auto second_order = [&](const Tensor& out) {
      const auto first = Grad(loss_of(out), inputs, /*create_graph=*/true);
      Tensor total = tensor::SumAllFloat(tensor::Mul(out, weights2));
      for (const Tensor& g : first) total = tensor::Add(total, tensor::SumAll(tensor::Square(g)));
      return Grad(total, inputs);
    };
    const auto second_op = second_order(op());
    const auto second_ref = second_order(ref());
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(second_op[i], second_ref[i], "second-order d" + names[i] + ", " + where);
    }
    if (HasFailure()) return;
  }
}

TEST(GruRecurrenceTest, SharedCellFoldsItsGradsLikeTheComposite) {
  // Two ragged RunBatch calls share one cell, and a third consumer reads both
  // outputs: every cell grad folds its per-step contributions across the two
  // calls exactly as the composite's per-step nodes do.
  util::Rng rng(4051);
  const int64_t input = 3;
  const int64_t hd = 4;
  GruCell cell(input, hd, &rng);
  for (Tensor* p : cell.Parameters()) {
    for (float& v : *p->mutable_data()) v = DrawWithZeros(&rng, 0.6);
  }
  Tensor x1 = DrawTensor(Shape{3, 5, input}, &rng, 1.0, /*requires_grad=*/true);
  Tensor x2 = DrawTensor(Shape{2, 4, input}, &rng, 1.0, /*requires_grad=*/true);
  std::vector<Tensor> masks1, masks2;
  std::vector<bool> full1, full2;
  BuildStepMasks({5, 2, 4}, 5, &masks1, &full1);
  BuildStepMasks({1, 4}, 4, &masks2, &full2);
  Tensor w1 = DrawTensor(Shape{3, 5, hd}, &rng, 1.0);
  Tensor w2 = DrawTensor(Shape{2, 4, hd}, &rng, 1.0);
  Tensor mix = DrawTensor(Shape{hd, 2}, &rng, 1.0);
  std::vector<Tensor> inputs = {x1, x2};
  for (Tensor* p : cell.Parameters()) inputs.push_back(*p);
  const std::vector<std::string> names = {"x1", "x2", "w_ih", "w_hh", "b_ih", "b_hh"};

  auto loss_of = [&](const Tensor& out1, const Tensor& out2) {
    Tensor rows = tensor::Concat(
        {tensor::Reshape(out1, Shape{15, hd}), tensor::Reshape(out2, Shape{8, hd})}, 0);
    Tensor other = tensor::SumAll(tensor::Square(tensor::MatMul(rows, mix)));
    return tensor::Add(tensor::Add(tensor::SumAllFloat(tensor::Mul(out1, w1)),
                                   tensor::SumAllFloat(tensor::Mul(out2, w2))),
                       other);
  };
  auto op_loss = [&] {
    return loss_of(cell.RunBatch(x1, masks1, full1, false),
                   cell.RunBatch(x2, masks2, full2, true));
  };
  auto ref_loss = [&] {
    return loss_of(CompositeRunBatch(cell, x1, masks1, full1, false),
                   CompositeRunBatch(cell, x2, masks2, full2, true));
  };
  const auto kernel = Grad(op_loss(), inputs);
  const auto reference = Grad(ref_loss(), inputs);
  const auto graph = Grad(op_loss(), inputs, /*create_graph=*/true);
  auto second_order = [&](const Tensor& loss) {
    const auto first = Grad(loss, inputs, /*create_graph=*/true);
    Tensor total = loss;
    for (const Tensor& g : first) total = tensor::Add(total, tensor::SumAll(tensor::Square(g)));
    return Grad(total, inputs);
  };
  const auto second_op = second_order(op_loss());
  const auto second_ref = second_order(ref_loss());
  for (size_t i = 0; i < inputs.size(); ++i) {
    ExpectSameBits(kernel[i], reference[i], "first-order d" + names[i]);
    ExpectSameBits(graph[i], reference[i], "graph-branch d" + names[i]);
    ExpectSameBits(second_op[i], second_ref[i], "second-order d" + names[i]);
  }
}

TEST(GruRecurrenceTest, GradsOnOneOutputStayExactAfterACreateGraphGrad) {
  // A create_graph Grad re-points the op's visible node at the composite it
  // rebuilt, mid-walk.  Every later Grad on the same output, first order or
  // create_graph, must still give the composite's bits; the first-order ones
  // then run the composite's per-step closures instead of the kernel, which
  // the grown graph shows.
  util::Rng rng(613);
  const int64_t hd = 3;
  for (bool reverse : {false, true}) {
    GruCell cell(2, hd, &rng);
    for (Tensor* p : cell.Parameters()) {
      for (float& v : *p->mutable_data()) v = DrawWithZeros(&rng, 0.8);
    }
    std::vector<Tensor> masks;
    std::vector<bool> full;
    BuildStepMasks({5, 1, 3}, 5, &masks, &full);
    Tensor projected = DrawTensor(Shape{3, 5, 3 * hd}, &rng, 1.2, /*requires_grad=*/true);
    Tensor weights = DrawTensor(Shape{3, 5, hd}, &rng, 1.0);
    const std::vector<Tensor> inputs = {projected, Param(&cell, "w_hh"), Param(&cell, "b_hh")};
    const std::vector<std::string> names = {"projected", "w_hh", "b_hh"};
    auto loss_of = [&](const Tensor& out) {
      return tensor::SumAllFloat(tensor::Mul(tensor::Mul(out, out), weights));
    };
    const auto reference =
        Grad(loss_of(CompositeRecurrence(cell, projected, masks, full, reverse)), inputs);

    const Tensor loss = loss_of(cell.Recurrence(projected, masks, full, reverse));
    const int64_t fused_size = tensor::autodiff::GraphSize(loss);
    const auto before = Grad(loss, inputs);
    const auto graph = Grad(loss, inputs, /*create_graph=*/true);
    EXPECT_GT(tensor::autodiff::GraphSize(loss), fused_size);
    const auto after = Grad(loss, inputs);
    const auto graph_again = Grad(loss, inputs, /*create_graph=*/true);
    const std::string where = reverse ? " (reverse)" : "";
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(before[i], reference[i], "first order before, d" + names[i] + where);
      ExpectSameBits(graph[i], reference[i], "create_graph, d" + names[i] + where);
      ExpectSameBits(after[i], reference[i], "first order after, d" + names[i] + where);
      ExpectSameBits(graph_again[i], reference[i], "create_graph again, d" + names[i] + where);
    }
  }
}

TEST(GruRecurrenceTest, OneRunIsAConstantNumberOfGraphNodes) {
  util::Rng rng(77);
  GruCell cell(3, 4, &rng);
  auto graph_size = [&](int64_t max_len) {
    Tensor x = Tensor::Randn(Shape{3, max_len, 3}, &rng, 1.0f, /*requires_grad=*/true);
    std::vector<Tensor> masks;
    std::vector<bool> full;
    BuildStepMasks({max_len, 1, max_len - 1}, max_len, &masks, &full);
    return tensor::autodiff::GraphSize(cell.RunBatch(x, masks, full, /*reverse=*/true));
  };
  EXPECT_EQ(graph_size(3), graph_size(30));
}

TEST(GruDeathTest, RunBatchRejectsMalformedArguments) {
  util::Rng rng(5);
  GruCell cell(3, 2, &rng);
  Tensor x = Tensor::Randn(Shape{2, 4, 3}, &rng);
  std::vector<Tensor> masks;
  std::vector<bool> full;
  BuildStepMasks({4, 2}, 4, &masks, &full);
  EXPECT_DEATH(cell.RunBatch(Tensor::Randn(Shape{8, 3}, &rng), masks, full, false),
               "RunBatch expects x");
  EXPECT_DEATH(cell.RunBatch(Tensor::Randn(Shape{2, 4, 5}, &rng), masks, full, false),
               "RunBatch expects x");
  EXPECT_DEATH(cell.RunBatch(Tensor::Zeros(Shape{2, 0, 3}), {}, {}, false),
               "empty batch");
  std::vector<Tensor> short_masks(masks.begin(), masks.end() - 1);
  EXPECT_DEATH(cell.RunBatch(x, short_masks, full, false), "step_masks has 3 entries");
  std::vector<bool> short_full(full.begin(), full.end() - 1);
  EXPECT_DEATH(cell.RunBatch(x, masks, short_full, false), "step_full has 3 entries");
  std::vector<Tensor> wide_masks = masks;
  wide_masks[3] = Tensor::Ones(Shape{2, 2});
  EXPECT_DEATH(cell.RunBatch(x, wide_masks, full, false), "step_masks\\[3\\] must be");
  std::vector<Tensor> missing_masks = masks;
  missing_masks[2] = Tensor();
  EXPECT_DEATH(cell.RunBatch(x, missing_masks, full, false), "step_masks\\[2\\] must be");
  EXPECT_DEATH(BuildStepMasks({5, 2}, 4, &masks, &full), "lane 0 length 5 out of");
  EXPECT_DEATH(BuildStepMasks({2, -1}, 4, &masks, &full), "lane 1 length -1 out of");
}

}  // namespace
}  // namespace fewner::nn
