#include "nn/lstm.h"

#include <vector>

#include "nn/init.h"
#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

LstmCell::LstmCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_ih_ = XavierNormal(input_dim, 4 * hidden_dim, rng);
  w_hh_ = XavierNormal(hidden_dim, 4 * hidden_dim, rng);
  // Forget-gate bias of 1 so early training does not wash out the cell state.
  std::vector<float> bias(static_cast<size_t>(4 * hidden_dim), 0.0f);
  for (int64_t i = hidden_dim; i < 2 * hidden_dim; ++i) {
    bias[static_cast<size_t>(i)] = 1.0f;
  }
  bias_ = Tensor::FromData(Shape{4 * hidden_dim}, std::move(bias),
                           /*requires_grad=*/true);
  RegisterParameter("w_ih", &w_ih_);
  RegisterParameter("w_hh", &w_hh_);
  RegisterParameter("bias", &bias_);
}

Tensor LstmCell::ProjectInput(const Tensor& x) const {
  FEWNER_CHECK(x.rank() == 2 && x.shape().dim(1) == input_dim_,
               "LstmCell expects [L, " << input_dim_ << "], got "
                                       << x.shape().ToString());
  return tensor::Add(tensor::MatMul(x, w_ih_), bias_);  // [L, 4H]
}

void LstmCell::Step(const Tensor& projected_row, const Tensor& h, const Tensor& c,
                    Tensor* h_next, Tensor* c_next) const {
  const int64_t hd = hidden_dim_;
  // Per-timestep GEMM: its NT/TN backward reads w_hh_ and h in place, so BPTT
  // carries no per-step w_hh_ᵀ / hᵀ transpose copies (tensor/ops.cc).
  Tensor gates =
      tensor::Add(projected_row, tensor::MatMul(h, w_hh_));  // [1, 4H]
  Tensor i = tensor::Sigmoid(tensor::Slice(gates, 1, 0, hd));
  Tensor f = tensor::Sigmoid(tensor::Slice(gates, 1, hd, hd));
  Tensor g = tensor::Tanh(tensor::Slice(gates, 1, 2 * hd, hd));
  Tensor o = tensor::Sigmoid(tensor::Slice(gates, 1, 3 * hd, hd));
  *c_next = tensor::Add(tensor::Mul(f, c), tensor::Mul(i, g));
  *h_next = tensor::Mul(o, tensor::Tanh(*c_next));
}

BiLstm::BiLstm(int64_t input_dim, int64_t hidden_dim, util::Rng* rng)
    : hidden_dim_(hidden_dim) {
  forward_cell_ = std::make_unique<LstmCell>(input_dim, hidden_dim, rng);
  backward_cell_ = std::make_unique<LstmCell>(input_dim, hidden_dim, rng);
  RegisterModule("forward", forward_cell_.get());
  RegisterModule("backward", backward_cell_.get());
}

Tensor BiLstm::RunDirectionBatch(const LstmCell& cell, const Tensor& x,
                                 const std::vector<int64_t>& lengths, bool reverse) const {
  const int64_t lanes = x.shape().dim(0);
  const int64_t length = x.shape().dim(1);
  const int64_t input = x.shape().dim(2);
  Tensor projected = cell.ProjectInput(
      tensor::Reshape(x, Shape{lanes * length, input}));  // [B*L, 4H]
  Tensor projected3 =
      tensor::Reshape(projected, Shape{lanes, length, 4 * hidden_dim_});
  Tensor h = Tensor::Zeros(Shape{lanes, hidden_dim_});
  Tensor c = Tensor::Zeros(Shape{lanes, hidden_dim_});
  std::vector<Tensor> states(static_cast<size_t>(length));
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = reverse ? length - 1 - step : step;
    Tensor rows = tensor::Reshape(tensor::Slice(projected3, 1, t, 1),
                                  Shape{lanes, 4 * hidden_dim_});
    Tensor h_next, c_next;
    cell.Step(rows, h, c, &h_next, &c_next);
    const std::vector<Tensor> carried =
        tensor::CarryFinishedLanes({h_next, c_next}, {h, c}, lengths, length, t);
    h = carried[0];
    c = carried[1];
    states[static_cast<size_t>(t)] =
        tensor::Reshape(h, Shape{lanes, 1, hidden_dim_});
  }
  return tensor::Concat(states, 1);  // [B, L, H]
}

Tensor BiLstm::ForwardBatch(const Tensor& x,
                            const std::vector<int64_t>& lengths) const {
  FEWNER_CHECK(x.rank() == 3, "BiLstm::ForwardBatch expects [B, L, input], got "
                                  << x.shape().ToString());
  FEWNER_CHECK(static_cast<int64_t>(lengths.size()) == x.shape().dim(0),
               "BiLstm::ForwardBatch lengths/batch mismatch");
  Tensor fwd = RunDirectionBatch(*forward_cell_, x, lengths, /*reverse=*/false);
  Tensor bwd = RunDirectionBatch(*backward_cell_, x, lengths, /*reverse=*/true);
  return tensor::Concat({fwd, bwd}, 2);  // [B, L, 2H]
}

}  // namespace fewner::nn
