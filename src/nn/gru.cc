#include "nn/gru.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "nn/init.h"
#include "tensor/autodiff.h"
#include "tensor/intraop.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// One GRU step from tensor ops over explicit weights: GruCell::Step, and the
/// step of RecurrenceComposite.
Tensor StepComposite(const Tensor& projected_row, const Tensor& h, const Tensor& w_hh,
                     const Tensor& b_hh, int64_t hd) {
  Tensor hidden_proj = tensor::Add(tensor::MatMul(h, w_hh), b_hh);  // [B, 3H]

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

/// The recurrence composite: [B, L, 3H] pre-projected input -> [B, L, H], one
/// StepComposite per timestep (`reverse` runs back to front; states stay in
/// textual order), lanes inactive at step t carrying their state through an
/// exact Where.  It is the definition of the fused gru_recurrence op: the
/// forward and first-order backward kernels reproduce its float operations,
/// and the op's create_graph backward differentiates it directly.
Tensor RecurrenceComposite(const Tensor& projected3, const Tensor& w_hh, const Tensor& b_hh,
                           const std::vector<Tensor>& step_masks,
                           const std::vector<bool>& step_full, bool reverse) {
  const int64_t lanes = projected3.shape().dim(0);
  const int64_t length = projected3.shape().dim(1);
  const int64_t hd = w_hh.shape().dim(0);
  Tensor h = Tensor::Zeros(Shape{lanes, hd});
  std::vector<Tensor> states(static_cast<size_t>(length));
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = reverse ? length - 1 - step : step;
    Tensor rows =
        tensor::Reshape(tensor::Slice(projected3, 1, t, 1), Shape{lanes, 3 * hd});
    Tensor h_new = StepComposite(rows, h, w_hh, b_hh, hd);
    // Where copies the selected operand, so the carry is exact.
    h = step_full[static_cast<size_t>(t)]
            ? h_new
            : tensor::Where(step_masks[static_cast<size_t>(t)], h_new, h);
    states[static_cast<size_t>(t)] = tensor::Reshape(h, Shape{lanes, 1, hd});
  }
  return tensor::Concat(states, 1);  // [B, L, H]
}

/// The recurrence's attributes: sizes, direction, and which lanes step at
/// each timestep (the composite's step masks, kept for its rebuild).
struct RecurrenceAttrs {
  int64_t lanes = 0;
  int64_t length = 0;
  int64_t hidden = 0;
  bool reverse = false;
  std::vector<Tensor> step_masks;
  std::vector<bool> step_full;
  std::vector<unsigned char> active;  ///< [L, B] by timestep: lane b steps at t

  int64_t TimeOf(int64_t step) const { return reverse ? length - 1 - step : step; }
};

/// What the graph-mode forward keeps for the first-order backward, each
/// [L, B, H] in processing order: the state after the step and the step's r,
/// z, n and h·W_hn + b_hn.
struct RecurrenceTape {
  std::vector<float> h, r, z, n, hn;
};

float SigmoidOf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// The fused forward of RecurrenceComposite into `out` [B, L, H], with its
/// float operations in its order: per step h·W_hh through the same GEMM
/// kernel, + b_hh, the gate adds, Sigmoid as 1/(1 + exp(−x)), tanh,
/// ((−z) + 1)·n + z·h, and the Where carry of inactive lanes.  Like the
/// composite's ops, each pass covers the step's block, so every libm call
/// runs in a loop of its own function.
///
/// Each step runs over a lane list, its gate rows packed in list order.  With
/// a tape the list is every lane (the backward reads every lane's gates, the
/// carried lanes' too), so row i is lane i.  Without one it is the lanes live
/// at the step: their h rows are packed for a GEMM of that many rows, and a
/// lane past its end pays no GEMM row and no gate.  Lanes off the list, and
/// listed lanes that are inactive, carry their state as the composite's Where
/// copy does; GEMM rows are bitwise-independent (the ascending-k contract),
/// so the output does not depend on the list.
void RecurrenceForward(const RecurrenceAttrs& rec, const float* projected, const float* w_hh,
                       const float* b_hh, float* out, RecurrenceTape* tape) {
  const int64_t lanes = rec.lanes;
  const int64_t length = rec.length;
  const int64_t hd = rec.hidden;
  const int64_t slab = lanes * hd;
  std::vector<float> h(static_cast<size_t>(slab), 0.0f);
  std::vector<float> hidden_proj(static_cast<size_t>(3 * slab));
  // Each step writes its next state and gates to the tape; without one,
  // every step reuses a one-step block.
  RecurrenceTape one_step;
  RecurrenceTape* dst = tape != nullptr ? tape : &one_step;
  for (std::vector<float>* v : {&dst->h, &dst->r, &dst->z, &dst->n, &dst->hn}) {
    v->resize(static_cast<size_t>((tape != nullptr ? length : 1) * slab));
  }
  std::vector<int64_t> live(static_cast<size_t>(lanes));
  std::iota(live.begin(), live.end(), int64_t{0});
  std::vector<float> h_live(tape != nullptr ? 0 : static_cast<size_t>(slab));
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = rec.TimeOf(step);
    const int64_t at = tape != nullptr ? step * slab : 0;
    float* h_next = dst->h.data() + at;
    float* r = dst->r.data() + at;
    float* z = dst->z.data() + at;
    float* n = dst->n.data() + at;
    float* hn = dst->hn.data() + at;
    const unsigned char* active = rec.active.data() + t * lanes;
    if (tape == nullptr) {
      live.clear();
      for (int64_t b = 0; b < lanes; ++b) {
        if (active[b] != 0) live.push_back(b);
      }
    }
    const int64_t count = static_cast<int64_t>(live.size());
    const int64_t rows = count * hd;
    const float* h_rows = h.data();
    if (count < lanes) {
      // Lanes off the list carry their state.
      std::memcpy(h_next, h.data(), static_cast<size_t>(slab) * sizeof(float));
      for (int64_t i = 0; i < count; ++i) {
        std::memcpy(h_live.data() + i * hd, h.data() + live[static_cast<size_t>(i)] * hd,
                    static_cast<size_t>(hd) * sizeof(float));
      }
      h_rows = h_live.data();
    }
    if (count > 0) {
      tensor::kernel::GemmNN(h_rows, w_hh, hidden_proj.data(), count, hd, 3 * hd);
    }
    for (int64_t i = 0; i < count; ++i) {
      const int64_t b = live[static_cast<size_t>(i)];
      const float* x = projected + (b * length + t) * 3 * hd;
      float* hp = hidden_proj.data() + i * 3 * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < 3 * hd; ++j) hp[j] = hp[j] + b_hh[j];
      float* ri = r + i * hd;
      float* zi = z + i * hd;
      float* hni = hn + i * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < hd; ++j) {
        ri[j] = x[j] + hp[j];
        zi[j] = x[hd + j] + hp[hd + j];
        hni[j] = hp[2 * hd + j];
      }
    }
    for (int64_t k = 0; k < rows; ++k) r[k] = SigmoidOf(r[k]);
    for (int64_t k = 0; k < rows; ++k) z[k] = SigmoidOf(z[k]);
    for (int64_t i = 0; i < count; ++i) {
      const int64_t b = live[static_cast<size_t>(i)];
      const float* xn = projected + (b * length + t) * 3 * hd + 2 * hd;
      float* ni = n + i * hd;
      const float* ri = r + i * hd;
      const float* hni = hn + i * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < hd; ++j) ni[j] = xn[j] + ri[j] * hni[j];
    }
    for (int64_t k = 0; k < rows; ++k) n[k] = std::tanh(n[k]);
    for (int64_t i = 0; i < count; ++i) {
      const int64_t b = live[static_cast<size_t>(i)];
      const bool step_lane = active[b] != 0;
      const float* zi = z + i * hd;
      const float* ni = n + i * hd;
      const float* hb = h.data() + b * hd;
      float* hb_next = h_next + b * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < hd; ++j) {
        const float h_new = (-zi[j] + 1.0f) * ni[j] + zi[j] * hb[j];
        hb_next[j] = step_lane ? h_new : hb[j];
      }
    }
    for (int64_t b = 0; b < lanes; ++b) {
      std::memcpy(out + (b * length + t) * hd, h_next + b * hd,
                  static_cast<size_t>(hd) * sizeof(float));
    }
    std::memcpy(h.data(), h_next, static_cast<size_t>(slab) * sizeof(float));
  }
}

/// The first-order backward of RecurrenceComposite under upstream grad `g`
/// [B, L, H], run as one reverse loop over the forward's tape.  Each value is
/// the one the composite's eval-mode backward computes: the same closure
/// expressions on the same operands (Where's g·sel and g·((−sel) + 1), Mul's
/// g·other, Neg's −g, Sigmoid's g·(y·((−y) + 1)), Tanh's g·((−(y·y)) + 1), the
/// MatMul grads through the same GemmNT/GemmTN, SumTo's sums from +0), and the
/// same fan-in order at every multiply-consumed node (see the comments).
/// Folds each step's w_hh and b_hh grads into their accumulators through
/// autodiff::FoldInputGrad, last step first, as Grad folds the composite's
/// per-step MatMul and Add grads, and returns the grad of `projected` (the
/// op's inputs are {projected, w_hh, b_hh}) if `needs` asks for it.
std::vector<Tensor> RecurrenceBackward(const RecurrenceAttrs& rec, const RecurrenceTape& tape,
                                       const float* g, const float* w_hh,
                                       const tensor::NeedsGrad& needs) {
  const int64_t lanes = rec.lanes;
  const int64_t length = rec.length;
  const int64_t hd = rec.hidden;
  const size_t slab = static_cast<size_t>(lanes * hd);
  std::vector<Tensor> grads(3);
  std::vector<float> d_projected(needs[0] ? static_cast<size_t>(lanes * length * 3 * hd) : 0);
  // The grad of an output row: Concat's backward slices it out exactly.
  auto out_grad = [&](int64_t b, int64_t t) { return g + (b * length + t) * hd; };

  std::vector<float> g_h(slab);  // the folded grad of the state after the step
  std::vector<float> g_new(slab);
  std::vector<float> g_carry(slab);
  std::vector<float> g_z(slab);
  std::vector<float> g_mm(slab);
  std::vector<float> d_hidden_proj(static_cast<size_t>(lanes * 3 * hd));
  // One scratch per weight grad, reused by every step: each step's grad is
  // folded before the next overwrites it.
  std::vector<float> d_w(needs[1] ? static_cast<size_t>(hd * 3 * hd) : 0);
  std::vector<float> d_b(needs[2] ? static_cast<size_t>(3 * hd) : 0);
  const std::vector<float> zeros(slab, 0.0f);
  // dh = d(hidden_proj)·W_hhᵀ is GemmNT, which packs W_hhᵀ and runs GemmNN
  // on the pack (at one lane it reads W_hh in place); the pack is made once
  // here, not once per step.
  std::vector<float> w_hh_t(lanes > 1 ? static_cast<size_t>(3 * hd * hd) : 0);
  if (lanes > 1) tensor::kernel::PackTranspose(w_hh, w_hh_t.data(), hd, 3 * hd);
  for (int64_t b = 0; b < lanes; ++b) {
    std::memcpy(g_h.data() + b * hd, out_grad(b, rec.TimeOf(length - 1)),
                static_cast<size_t>(hd) * sizeof(float));
  }
  for (int64_t step = length - 1; step >= 0; --step) {
    const int64_t t = rec.TimeOf(step);
    const bool ragged = !rec.step_full[static_cast<size_t>(t)];
    const size_t at = static_cast<size_t>(step) * slab;
    const float* h_prev = step > 0 ? tape.h.data() + at - slab : zeros.data();
    const unsigned char* active = rec.active.data() + t * lanes;
    // Where(active, h_new, h_prev): g·sel into h_new, g·((−sel) + 1) into the
    // carried state.
    const float* gn_all = g_h.data();
    if (ragged) {
      for (int64_t b = 0; b < lanes; ++b) {
        const float sel = active[b] != 0 ? 1.0f : 0.0f;
        const float keep = -sel + 1.0f;
        for (int64_t j = 0; j < hd; ++j) {
          const size_t k = static_cast<size_t>(b * hd + j);
          g_new[k] = g_h[k] * sel;
          g_carry[k] = g_h[k] * keep;
        }
      }
      gn_all = g_new.data();
    }
    for (int64_t b = 0; b < lanes; ++b) {
      float* dhp = d_hidden_proj.data() + b * 3 * hd;
      float* dx = needs[0] ? d_projected.data() + (b * length + t) * 3 * hd : nullptr;
      for (int64_t j = 0; j < hd; ++j) {
        const size_t k = static_cast<size_t>(b * hd + j);
        const size_t kt = at + k;
        const float gn = gn_all[k];
        const float r = tape.r[kt];
        const float z = tape.z[kt];
        const float n = tape.n[kt];
        const float hn = tape.hn[kt];
        // h_new = m1 + m2 with m1 = ((−z) + 1)·n and m2 = z·h_prev: both get gn.
        const float d_one_minus_z = gn * n;
        const float d_n = gn * (-z + 1.0f);
        const float d_an = d_n * (-(n * n) + 1.0f);  // Tanh
        const float d_r = d_an * hn;                  // Mul(r, hn)
        const float d_hn = d_an * r;
        const float d_ar = d_r * (r * (-r + 1.0f));   // Sigmoid
        // z feeds m2 and the Neg; Grad folds m2's grad first.
        const float d_z = gn * h_prev[k] + -d_one_minus_z;
        const float d_az = d_z * (z * (-z + 1.0f));
        if (step > 0) g_z[k] = gn * z;
        // The gate Slices' zero-padded grads fan in at hidden_proj and at the
        // projected row: each entry is its one real term plus +0 pads, which
        // turns −0 into +0 (the + 0.0f).
        dhp[j] = d_ar + 0.0f;
        dhp[hd + j] = d_az + 0.0f;
        dhp[2 * hd + j] = d_hn + 0.0f;
        if (dx != nullptr) {
          dx[j] = d_ar + 0.0f;
          dx[hd + j] = d_az + 0.0f;
          dx[2 * hd + j] = d_an + 0.0f;
        }
      }
    }
    // hidden_proj = h_prev·W_hh + b_hh; Grad reaches the steps' MatMul and Add
    // nodes last step first, so their grads fold in that order.  GemmTN
    // overwrites d_w; SumTo's sums start from +0.
    if (needs[1]) {
      tensor::kernel::GemmTN(h_prev, d_hidden_proj.data(), d_w.data(), hd, lanes, 3 * hd);
      tensor::autodiff::FoldInputGrad(1, d_w.data());
    }
    if (needs[2]) {
      std::fill(d_b.begin(), d_b.end(), 0.0f);
      for (int64_t b = 0; b < lanes; ++b) {
        const float* dhp = d_hidden_proj.data() + b * 3 * hd;
        for (int64_t j = 0; j < 3 * hd; ++j) d_b[static_cast<size_t>(j)] += dhp[j];
      }
      tensor::autodiff::FoldInputGrad(2, d_b.data());
    }
    if (step == 0) break;
    if (lanes > 1) {
      tensor::kernel::GemmNN(d_hidden_proj.data(), w_hh_t.data(), g_mm.data(), lanes, 3 * hd,
                             hd);
    } else {
      tensor::kernel::GemmNT(d_hidden_proj.data(), w_hh, g_mm.data(), lanes, 3 * hd, hd);
    }
    // The state before this step is read by the step's Where (ragged steps),
    // its z·h_prev and its MatMul, and by its output row's Reshape.  Forward,
    // Grad reaches the output row after the next step's nodes; in reverse,
    // every output row comes before any step node.
    const int64_t t_prev = rec.TimeOf(step - 1);
    for (int64_t b = 0; b < lanes; ++b) {
      const float* o = out_grad(b, t_prev);
      for (int64_t j = 0; j < hd; ++j) {
        const size_t k = static_cast<size_t>(b * hd + j);
        float acc;
        if (rec.reverse) {
          acc = o[j];
          if (ragged) acc = acc + g_carry[k];
          acc = acc + g_z[k];
          acc = acc + g_mm[k];
        } else {
          acc = ragged ? g_carry[k] + g_z[k] : g_z[k];
          acc = acc + g_mm[k];
          acc = acc + o[j];
        }
        g_h[k] = acc;
      }
    }
  }
  if (needs[0]) {
    grads[0] = Tensor::FromData(Shape{lanes, length, 3 * hd}, std::move(d_projected));
  }
  return grads;
}

}  // namespace

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
  return StepComposite(projected_row, h, w_hh_, b_hh_, hidden_dim_);
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
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t len = lengths[static_cast<size_t>(b)];
    FEWNER_CHECK(len >= 0 && len <= max_len,
                 "BuildStepMasks: lane " << b << " length " << len << " out of [0, "
                                         << max_len << "]");
  }
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

Tensor GruCell::Recurrence(const Tensor& projected, const std::vector<Tensor>& step_masks,
                           const std::vector<bool>& step_full, bool reverse) const {
  FEWNER_CHECK(projected.rank() == 3 && projected.shape().dim(2) == 3 * hidden_dim_,
               "GruCell::Recurrence expects projected [B, L, " << 3 * hidden_dim_
                                                               << "], got "
                                                               << projected.shape().ToString());
  const int64_t lanes = projected.shape().dim(0);
  const int64_t length = projected.shape().dim(1);
  FEWNER_CHECK(lanes > 0 && length > 0,
               "GruCell: empty batch " << projected.shape().ToString());
  FEWNER_CHECK(static_cast<int64_t>(step_masks.size()) == length,
               "GruCell: step_masks has " << step_masks.size() << " entries for "
                                          << length << " steps");
  FEWNER_CHECK(static_cast<int64_t>(step_full.size()) == length,
               "GruCell: step_full has " << step_full.size() << " entries for " << length
                                         << " steps");
  auto rec = std::make_shared<RecurrenceAttrs>();
  rec->lanes = lanes;
  rec->length = length;
  rec->hidden = hidden_dim_;
  rec->reverse = reverse;
  rec->step_masks = step_masks;
  rec->step_full = step_full;
  rec->active.assign(static_cast<size_t>(lanes * length), 1);
  for (int64_t t = 0; t < length; ++t) {
    if (step_full[static_cast<size_t>(t)]) continue;
    const Tensor& mask = step_masks[static_cast<size_t>(t)];
    FEWNER_CHECK(mask.defined() && mask.shape() == (Shape{lanes, 1}),
                 "GruCell: step_masks[" << t << "] must be [" << lanes << ", 1], got "
                                        << (mask.defined() ? mask.shape().ToString()
                                                           : std::string("undefined")));
    for (int64_t b = 0; b < lanes; ++b) {
      rec->active[static_cast<size_t>(t * lanes + b)] = mask.at(b) != 0.0f;
    }
  }
  auto tape = std::make_shared<RecurrenceTape>();
  return tensor::FusedOp(
      "gru_recurrence", "gru_recurrence_kernel", Shape{lanes, length, hidden_dim_},
      {projected, w_hh_, b_hh_},
      [&](float* out, bool taping) {
        RecurrenceForward(*rec, projected.data().data(), w_hh_.data().data(),
                          b_hh_.data().data(), out, taping ? tape.get() : nullptr);
      },
      [rec, tape](const std::vector<Tensor>& in, const Tensor& grad,
                  const tensor::NeedsGrad& needs) {
        return RecurrenceBackward(*rec, *tape, grad.data().data(), in[1].data().data(), needs);
      },
      [rec](const std::vector<Tensor>& in) {
        return RecurrenceComposite(in[0], in[1], in[2], rec->step_masks, rec->step_full,
                                   rec->reverse);
      });
}

Tensor GruCell::RunBatch(const Tensor& x, const std::vector<Tensor>& step_masks,
                         const std::vector<bool>& step_full, bool reverse) const {
  FEWNER_CHECK(x.rank() == 3 && x.shape().dim(2) == input_dim_,
               "GruCell::RunBatch expects x [B, L, " << input_dim_ << "], got "
                                                     << x.shape().ToString());
  const int64_t lanes = x.shape().dim(0);
  const int64_t length = x.shape().dim(1);
  // One hoisted GEMM for the whole batch; rows are bitwise-independent under
  // the ascending-k kernel contract, so row (b, t) matches the per-sentence
  // projection of sentence b's row t exactly.
  Tensor projected = ProjectInput(
      tensor::Reshape(x, Shape{lanes * length, input_dim_}));  // [B*L, 3H]
  return Recurrence(
      tensor::Reshape(projected, Shape{lanes, length, 3 * hidden_dim_}), step_masks,
      step_full, reverse);
}

Tensor GruCell::RunGathered(const Tensor& distinct, const std::vector<int64_t>& slot_rows,
                            const std::vector<Tensor>& step_masks,
                            const std::vector<bool>& step_full, bool reverse) const {
  const int64_t length = static_cast<int64_t>(step_masks.size());
  FEWNER_CHECK(length > 0 && static_cast<int64_t>(slot_rows.size()) % length == 0,
               "GruCell::RunGathered: " << slot_rows.size() << " slot rows for " << length
                                        << " steps");
  const int64_t lanes = static_cast<int64_t>(slot_rows.size()) / length;
  // Rows are bitwise-independent under the ascending-k kernel contract, so a
  // gathered projected row is the projection of the slot's own input row.
  Tensor projected = tensor::IndexSelectRows(ProjectInput(distinct), slot_rows);
  return Recurrence(tensor::Reshape(projected, Shape{lanes, length, 3 * hidden_dim_}),
                    step_masks, step_full, reverse);
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

Tensor BiGru::ForwardGathered(const Tensor& distinct, const std::vector<int64_t>& slot_rows,
                              const std::vector<int64_t>& lengths, int64_t max_len) const {
  std::vector<Tensor> masks;
  std::vector<bool> full;
  BuildStepMasks(lengths, max_len, &masks, &full);
  Tensor fwd = forward_cell_->RunGathered(distinct, slot_rows, masks, full, /*reverse=*/false);
  Tensor bwd = backward_cell_->RunGathered(distinct, slot_rows, masks, full, /*reverse=*/true);
  return tensor::Concat({fwd, bwd}, 2);  // [B, L, 2H]
}

}  // namespace fewner::nn
