#include "nn/gru.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "nn/init.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
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
/// composite's ops, each pass covers the step's [B, H] block, so every libm
/// call runs in a loop of its own function.
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
  for (int64_t step = 0; step < length; ++step) {
    const int64_t t = rec.TimeOf(step);
    const int64_t at = tape != nullptr ? step * slab : 0;
    float* h_next = dst->h.data() + at;
    float* r = dst->r.data() + at;
    float* z = dst->z.data() + at;
    float* n = dst->n.data() + at;
    float* hn = dst->hn.data() + at;
    tensor::kernel::GemmNN(h.data(), w_hh, hidden_proj.data(), lanes, hd, 3 * hd);
    for (int64_t b = 0; b < lanes; ++b) {
      const float* x = projected + (b * length + t) * 3 * hd;
      float* hp = hidden_proj.data() + b * 3 * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < 3 * hd; ++j) hp[j] = hp[j] + b_hh[j];
      float* rb = r + b * hd;
      float* zb = z + b * hd;
      float* hnb = hn + b * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < hd; ++j) {
        rb[j] = x[j] + hp[j];
        zb[j] = x[hd + j] + hp[hd + j];
        hnb[j] = hp[2 * hd + j];
      }
    }
    for (int64_t i = 0; i < slab; ++i) r[i] = SigmoidOf(r[i]);
    for (int64_t i = 0; i < slab; ++i) z[i] = SigmoidOf(z[i]);
    for (int64_t b = 0; b < lanes; ++b) {
      const float* xn = projected + (b * length + t) * 3 * hd + 2 * hd;
      float* nb = n + b * hd;
      const float* rb = r + b * hd;
      const float* hnb = hn + b * hd;
      FEWNER_SIMD
      for (int64_t j = 0; j < hd; ++j) nb[j] = xn[j] + rb[j] * hnb[j];
    }
    for (int64_t i = 0; i < slab; ++i) n[i] = std::tanh(n[i]);
    const unsigned char* active = rec.active.data() + t * lanes;
    for (int64_t b = 0; b < lanes; ++b) {
      const int64_t row = b * hd;
      const bool step_lane = active[b] != 0;
      FEWNER_SIMD
      for (int64_t j = row; j < row + hd; ++j) {
        const float h_new = (-z[j] + 1.0f) * n[j] + z[j] * h[static_cast<size_t>(j)];
        h_next[j] = step_lane ? h_new : h[static_cast<size_t>(j)];
      }
      std::memcpy(out + (b * length + t) * hd, h_next + row,
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
/// Returns the grads of the op's inputs (projected, then w_hh and b_hh once
/// per step, last step first) that `needs` asks for.
std::vector<Tensor> RecurrenceBackward(const RecurrenceAttrs& rec, const RecurrenceTape& tape,
                                       const float* g, const float* w_hh,
                                       const tensor::NeedsGrad& needs) {
  const int64_t lanes = rec.lanes;
  const int64_t length = rec.length;
  const int64_t hd = rec.hidden;
  const size_t slab = static_cast<size_t>(lanes * hd);
  std::vector<Tensor> grads(static_cast<size_t>(1 + 2 * length));
  std::vector<float> d_projected(needs[0] ? static_cast<size_t>(lanes * length * 3 * hd) : 0);
  // The grad of an output row: Concat's backward slices it out exactly.
  auto out_grad = [&](int64_t b, int64_t t) { return g + (b * length + t) * hd; };

  std::vector<float> g_h(slab);  // the folded grad of the state after the step
  std::vector<float> g_new(slab);
  std::vector<float> g_carry(slab);
  std::vector<float> g_z(slab);
  std::vector<float> g_mm(slab);
  std::vector<float> d_hidden_proj(static_cast<size_t>(lanes * 3 * hd));
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
    // nodes last step first, so the slots list them in that order.
    const size_t slot = static_cast<size_t>(1 + 2 * (length - 1 - step));
    if (needs[slot]) {
      std::vector<float> d_w(static_cast<size_t>(hd * 3 * hd));
      tensor::kernel::GemmTN(h_prev, d_hidden_proj.data(), d_w.data(), hd, lanes, 3 * hd);
      grads[slot] = Tensor::FromData(Shape{hd, 3 * hd}, std::move(d_w));
    }
    if (needs[slot + 1]) {
      std::vector<float> d_b(static_cast<size_t>(3 * hd), 0.0f);
      for (int64_t b = 0; b < lanes; ++b) {
        const float* dhp = d_hidden_proj.data() + b * 3 * hd;
        for (int64_t j = 0; j < 3 * hd; ++j) d_b[static_cast<size_t>(j)] += dhp[j];
      }
      grads[slot + 1] = Tensor::FromData(Shape{3 * hd}, std::move(d_b));
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

/// Shared by the op's two nodes: the attributes, the forward tape, and the
/// visible node that a create_graph backward re-points at the composite.
/// `visible` does not own: the visible node holds the kernel node, whose
/// closure holds this state, so the kernel node's closure only runs inside a
/// Grad that reached it through the visible node and holds both.
struct RecurrenceState {
  RecurrenceAttrs rec;
  RecurrenceTape tape;
  tensor::internal::Node* visible = nullptr;
};

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
  auto state = std::make_shared<RecurrenceState>();
  RecurrenceAttrs& rec = state->rec;
  rec.lanes = lanes;
  rec.length = length;
  rec.hidden = hidden_dim_;
  rec.reverse = reverse;
  rec.active.assign(static_cast<size_t>(lanes * length), 1);
  for (int64_t t = 0; t < length; ++t) {
    if (step_full[static_cast<size_t>(t)]) continue;
    const Tensor& mask = step_masks[static_cast<size_t>(t)];
    FEWNER_CHECK(mask.defined() && mask.shape() == (Shape{lanes, 1}),
                 "GruCell: step_masks[" << t << "] must be [" << lanes << ", 1], got "
                                        << (mask.defined() ? mask.shape().ToString()
                                                           : std::string("undefined")));
    for (int64_t b = 0; b < lanes; ++b) {
      rec.active[static_cast<size_t>(t * lanes + b)] = mask.at(b) != 0.0f;
    }
  }
  const Shape out_shape{lanes, length, hidden_dim_};
  const bool graph = !tensor::EvalMode::active() &&
                     (projected.requires_grad() || w_hh_.requires_grad() ||
                      b_hh_.requires_grad());
  if (!graph) {
    return tensor::CustomOp(
        "gru_recurrence", out_shape,
        [&](float* out) {
          RecurrenceForward(rec, projected.data().data(), w_hh_.data().data(),
                            b_hh_.data().data(), out, nullptr);
        },
        {projected, w_hh_, b_hh_}, nullptr);
  }
  rec.step_masks = step_masks;
  rec.step_full = step_full;
  // Grad hands each step's w_hh and b_hh grads to the shared leaves one by
  // one, as the composite's per-step MatMul and Add nodes do, so the
  // inputs list them once per step, in the order Grad reaches those nodes.
  std::vector<Tensor> inputs{projected};
  for (int64_t step = 0; step < length; ++step) {
    inputs.push_back(w_hh_);
    inputs.push_back(b_hh_);
  }
  tensor::BackwardFn backward = [state](const Tensor& self, const Tensor& grad,
                                        const tensor::NeedsGrad& needs) {
    const std::vector<Tensor>& in = self.node()->inputs;
    if (tensor::EvalMode::active()) {
      return RecurrenceBackward(state->rec, state->tape, grad.data().data(),
                                in[1].data().data(), needs);
    }
    // create_graph: differentiate the composite, rebuilt over the op's own
    // inputs, seeded with the upstream grad.  Its per-step w_hh and b_hh
    // grads come back unfolded, one per input slot.
    const RecurrenceAttrs& rec = state->rec;
    Tensor composite =
        RecurrenceComposite(in[0], in[1], in[2], rec.step_masks, rec.step_full, rec.reverse);
    std::vector<Tensor> wanted;
    for (size_t i = 0; i < 3; ++i) {
      if (needs[i]) wanted.push_back(in[i]);
    }
    std::vector<std::vector<Tensor>> found =
        tensor::autodiff::GradContributions(composite, wanted, grad);
    // Each input is read once per step: projected's grads fold here as Grad
    // would fold them; w_hh's and b_hh's go to their per-step slots.
    std::vector<Tensor> grads(in.size());
    size_t next = 0;
    for (size_t i = 0; i < 3; ++i) {
      if (!needs[i]) continue;
      const std::vector<Tensor>& per_step = found[next++];
      FEWNER_CHECK(static_cast<int64_t>(per_step.size()) == rec.length,
                   "gru_recurrence: " << per_step.size() << " grads for " << rec.length
                                      << " steps");
      for (int64_t k = 0; k < rec.length; ++k) {
        const Tensor& g = per_step[static_cast<size_t>(k)];
        if (i == 0) {
          grads[0] = k == 0 ? g : tensor::Add(grads[0], g);
        } else {
          grads[i + 2 * static_cast<size_t>(k)] = g;
        }
      }
    }
    // From now on the visible node reads the composite, so a later Grad
    // through these inputs and through the returned grads (the outer
    // meta-gradient) folds every path inside one graph, as the composite does.
    state->visible->inputs = {composite};
    return grads;
  };
  Tensor kernel_node = tensor::CustomOp(
      "gru_recurrence_kernel", out_shape,
      [&](float* out) {
        RecurrenceForward(rec, projected.data().data(), w_hh_.data().data(),
                          b_hh_.data().data(), out, &state->tape);
      },
      std::move(inputs), std::move(backward));
  // The visible node passes its grad straight through to its one input.
  Tensor visible = tensor::CustomOp(
      "gru_recurrence", out_shape,
      [&](float* out) {
        std::memcpy(out, kernel_node.data().data(),
                    static_cast<size_t>(kernel_node.numel()) * sizeof(float));
      },
      {kernel_node},
      [](const Tensor&, const Tensor& grad, const tensor::NeedsGrad&) -> std::vector<Tensor> {
        return {grad};
      });
  state->visible = visible.node();
  return visible;
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
