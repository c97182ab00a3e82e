#include "nn/gru.h"

#include <vector>

#include "nn/init.h"
#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_ih_ = XavierNormal(input_dim, 3 * hidden_dim, rng);
  w_hh_ = XavierNormal(hidden_dim, 3 * hidden_dim, rng);
  b_ih_ = ZeroInit(Shape{3 * hidden_dim});
  b_hh_ = ZeroInit(Shape{3 * hidden_dim});
  RegisterParameter("w_ih", &w_ih_);
  RegisterParameter("w_hh", &w_hh_);
  RegisterParameter("b_ih", &b_ih_);
  RegisterParameter("b_hh", &b_hh_);
}

Tensor GruCell::ProjectInput(const Tensor& x) const {
  FEWNER_CHECK(x.rank() == 2 && x.shape().dim(1) == input_dim_,
               "GruCell expects [R, " << input_dim_ << "], got "
                                      << x.shape().ToString());
  return tensor::Add(tensor::MatMul(x, w_ih_), b_ih_);  // [R, 3H]
}

Tensor GruCell::Step(const Tensor& projected_row, const Tensor& h) const {
  const int64_t hd = hidden_dim_;
  // This GEMM runs once per timestep, so its backward dominates BPTT cost:
  // MatMul's NT/TN backward reads w_hh_ and h in place — no per-step
  // w_hh_ᵀ / hᵀ transpose copies on the tape (tensor/ops.cc).
  Tensor hidden_proj = tensor::Add(tensor::MatMul(h, w_hh_), b_hh_);  // [B, 3H]

  Tensor xr = tensor::Slice(projected_row, 1, 0, hd);
  Tensor xz = tensor::Slice(projected_row, 1, hd, hd);
  Tensor xn = tensor::Slice(projected_row, 1, 2 * hd, hd);
  Tensor hr = tensor::Slice(hidden_proj, 1, 0, hd);
  Tensor hz = tensor::Slice(hidden_proj, 1, hd, hd);
  Tensor hn = tensor::Slice(hidden_proj, 1, 2 * hd, hd);

  Tensor r = tensor::Sigmoid(tensor::Add(xr, hr));
  Tensor z = tensor::Sigmoid(tensor::Add(xz, hz));
  Tensor n = tensor::Tanh(tensor::Add(xn, tensor::Mul(r, hn)));
  // h' = (1 - z) ⊙ n + z ⊙ h
  Tensor one_minus_z = tensor::AddScalar(tensor::Neg(z), 1.0f);
  return tensor::Add(tensor::Mul(one_minus_z, n), tensor::Mul(z, h));
}

BiGru::BiGru(int64_t input_dim, int64_t hidden_dim, util::Rng* rng) {
  forward_cell_ = std::make_unique<GruCell>(input_dim, hidden_dim, rng);
  backward_cell_ = std::make_unique<GruCell>(input_dim, hidden_dim, rng);
  RegisterModule("forward", forward_cell_.get());
  RegisterModule("backward", backward_cell_.get());
}

void BuildStepMasks(const std::vector<int64_t>& lengths, int64_t max_len,
                    std::vector<Tensor>* masks, std::vector<bool>* full) {
  const int64_t lanes = static_cast<int64_t>(lengths.size());
  masks->resize(static_cast<size_t>(max_len));
  full->assign(static_cast<size_t>(max_len), false);
  for (int64_t t = 0; t < max_len; ++t) {
    std::vector<float> m(static_cast<size_t>(lanes), 0.0f);
    bool all = true;
    for (int64_t b = 0; b < lanes; ++b) {
      if (t < lengths[static_cast<size_t>(b)]) {
        m[static_cast<size_t>(b)] = 1.0f;
      } else {
        all = false;
      }
    }
    (*full)[static_cast<size_t>(t)] = all;
    if (!all) {
      (*masks)[static_cast<size_t>(t)] =
          Tensor::FromData(Shape{lanes, 1}, std::move(m));
    }
  }
}

Tensor GruCell::RunBatch(const Tensor& x, const std::vector<Tensor>& step_masks,
                         const std::vector<bool>& step_full, bool reverse) const {
  const int64_t lanes = x.shape().dim(0);
  const int64_t length = x.shape().dim(1);
  const int64_t input = x.shape().dim(2);
  // One hoisted GEMM for the whole batch; rows are bitwise-independent under
  // the ascending-k kernel contract, so row (b, t) matches the per-sentence
  // projection of sentence b's row t exactly.
  Tensor projected = ProjectInput(
      tensor::Reshape(x, Shape{lanes * length, input}));  // [B*L, 3H]
  Tensor projected3 =
      tensor::Reshape(projected, Shape{lanes, length, 3 * hidden_dim_});
  Tensor h = Tensor::Zeros(Shape{lanes, hidden_dim_});
  std::vector<Tensor> states(static_cast<size_t>(length));
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = reverse ? length - 1 - step : step;
    Tensor rows = tensor::Reshape(tensor::Slice(projected3, 1, t, 1),
                                  Shape{lanes, 3 * hidden_dim_});
    Tensor h_new = Step(rows, h);
    // Inactive lanes (padding tail; in reverse, lanes whose sentence has not
    // started yet) carry their state through unchanged.  Where copies the
    // selected operand, so the carry is exact — active lanes see precisely
    // the per-sentence recurrence.
    h = step_full[static_cast<size_t>(t)]
            ? h_new
            : tensor::Where(step_masks[static_cast<size_t>(t)], h_new, h);
    states[static_cast<size_t>(t)] =
        tensor::Reshape(h, Shape{lanes, 1, hidden_dim_});
  }
  return tensor::Concat(states, 1);  // [B, L, H]
}

Tensor BiGru::ForwardBatch(const Tensor& x,
                           const std::vector<int64_t>& lengths) const {
  FEWNER_CHECK(x.rank() == 3, "BiGru::ForwardBatch expects [B, L, input], got "
                                  << x.shape().ToString());
  FEWNER_CHECK(static_cast<int64_t>(lengths.size()) == x.shape().dim(0),
               "BiGru::ForwardBatch lengths/batch mismatch");
  std::vector<Tensor> masks;
  std::vector<bool> full;
  BuildStepMasks(lengths, x.shape().dim(1), &masks, &full);
  Tensor fwd = forward_cell_->RunBatch(x, masks, full, /*reverse=*/false);
  Tensor bwd = backward_cell_->RunBatch(x, masks, full, /*reverse=*/true);
  return tensor::Concat({fwd, bwd}, 2);  // [B, L, 2H]
}

}  // namespace fewner::nn
