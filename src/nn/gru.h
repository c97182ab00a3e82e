// Gated recurrent units: a single GRU cell and the bidirectional GRU encoder
// used as the context encoder of the CNN-BiGRU-CRF backbone (paper Fig. 3).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fewner::nn {

/// Single-direction GRU cell with PyTorch gate conventions (r, z, n):
///   r = σ(x W_ir + h W_hr + b_r)
///   z = σ(x W_iz + h W_hz + b_z)
///   n = tanh(x W_in + r ⊙ (h W_hn) + b_n)
///   h' = (1 - z) ⊙ n + z ⊙ h
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);

  /// Projects token rows at once, [R, input] -> [R, 3H]; RunBatch hoists
  /// this matmul out of the recurrence over all B·L slots, RunGathered over
  /// the distinct rows.
  tensor::Tensor ProjectInput(const tensor::Tensor& x) const;

  /// One step given pre-projected input rows [B, 3H] and states [B, H], built
  /// from tensor ops.  Every op inside is per-row, so lane b of a batched step
  /// is bitwise-equal to a B=1 step on that lane alone.  This is the step of
  /// the recurrence's composite definition (see Recurrence).
  tensor::Tensor Step(const tensor::Tensor& projected_row,
                      const tensor::Tensor& h) const;

  /// The recurrence over pre-projected input [B, L, 3H] -> [B, L, H] as one
  /// fused op node (`reverse` runs back to front; states stay in textual
  /// order; lane b is inactive at step t when !step_full[t] and
  /// step_masks[t], a [B, 1] tensor, is 0 at b).  Its definition is the
  /// composite of tensor ops: a zero initial state, one Step per timestep,
  /// and an exact Where carry of inactive lanes, so lane b's real positions
  /// are bitwise-equal to a run on lane b alone.
  ///   - The forward kernel runs the composite's float operations in its
  ///     order (h·W_hh through the same GEMM kernel), so the output is the
  ///     composite's bit for bit, in eval and graph mode.  Without a tape
  ///     (eval mode, or no input needs a grad) it steps only the lanes live
  ///     at each step, through a GEMM of that many rows; the others carry
  ///     their state, and their projected rows are never read, so they may
  ///     hold anything, NaN and Inf included.
  ///   - It is a tensor::FusedOp, which owns the nodes and the choice of
  ///     backward.  Graph mode keeps a per-step tape (r, z, n, h·W_hn + b_hn,
  ///     h) for the first-order backward: one reverse kernel (BPTT) that
  ///     writes each step's slab of d(projected) and reproduces every closure
  ///     expression and fan-in order of the composite's first-order backward.
  ///     Under create_graph FusedOp differentiates the composite.
  ///   - The op's inputs are {projected, w_hh, b_hh}.  Both branches fold
  ///     the per-step w_hh and b_hh grads one by one, last step first, into
  ///     Grad's accumulators through autodiff::FoldInputGrad (the first-order
  ///     kernel from one reused scratch), so their fold onto a cell shared by
  ///     several calls is the composite's.
  /// Checks every argument: `projected` must be [B, L, 3H] with B, L >= 1,
  /// both step vectors must have L entries, and each ragged step's mask must
  /// be [B, 1].
  tensor::Tensor Recurrence(const tensor::Tensor& projected,
                            const std::vector<tensor::Tensor>& step_masks,
                            const std::vector<bool>& step_full, bool reverse) const;

  /// The one GRU time loop, [B, L, input] -> [B, L, H]: one hoisted
  /// ProjectInput over all B·L slots, then Recurrence.  Checks that `x` is
  /// [B, L, input] (and Recurrence checks the rest).
  tensor::Tensor RunBatch(const tensor::Tensor& x,
                          const std::vector<tensor::Tensor>& step_masks,
                          const std::vector<bool>& step_full,
                          bool reverse) const;

  /// RunBatch over slots given as distinct token rows: slot i of the padded
  /// [B, L] batch, lane-major, reads row slot_rows[i] of `distinct` [D,
  /// input].  ProjectInput runs on the D rows, one IndexSelectRows gathers
  /// [B·L, 3H], then Recurrence.  Projected rows are bitwise-independent, so
  /// this equals RunBatch on the gathered input.  The eval θ-prefix's entry;
  /// a gradient through it would fold per distinct row, so graph-mode
  /// callers use RunBatch.  L is step_masks.size().
  tensor::Tensor RunGathered(const tensor::Tensor& distinct,
                             const std::vector<int64_t>& slot_rows,
                             const std::vector<tensor::Tensor>& step_masks,
                             const std::vector<bool>& step_full, bool reverse) const;

  int64_t hidden_dim() const { return hidden_dim_; }
  int64_t input_dim() const { return input_dim_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  tensor::Tensor w_ih_;  ///< [input, 3H], gate order r|z|n
  tensor::Tensor w_hh_;  ///< [H, 3H]
  tensor::Tensor b_ih_;  ///< [3H]
  tensor::Tensor b_hh_;  ///< [3H]
};

/// Bidirectional GRU: concatenates forward and backward hidden states per
/// token.
class BiGru : public Module {
 public:
  BiGru(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);

  /// Padded lanes [B, L, input] -> [B, L, 2H]: GruCell::RunBatch forward and
  /// in reverse, lane b active at step t iff t < lengths[b].  Lane b's real
  /// positions are bitwise-equal to ForwardBatch on that lane alone (B=1 is
  /// the sentence-at-a-time case).
  tensor::Tensor ForwardBatch(const tensor::Tensor& x,
                              const std::vector<int64_t>& lengths) const;

  /// ForwardBatch over a [B, max_len] batch whose slot i reads row
  /// slot_rows[i] of `distinct` [D, input]: each direction's RunGathered.
  /// Bitwise-equal to ForwardBatch on the gathered input.
  tensor::Tensor ForwardGathered(const tensor::Tensor& distinct,
                                 const std::vector<int64_t>& slot_rows,
                                 const std::vector<int64_t>& lengths, int64_t max_len) const;

  int64_t output_dim() const { return 2 * hidden_dim(); }
  int64_t hidden_dim() const { return forward_cell_->hidden_dim(); }

 private:
  std::unique_ptr<GruCell> forward_cell_;
  std::unique_ptr<GruCell> backward_cell_;
};

/// Per-step lane activity masks for a padded batch: element t is a [B, 1]
/// tensor with 1.0 where t < lengths[b], plus a parallel all-lanes-active
/// flag so full steps can skip the Where select entirely.  Every length must
/// be in [0, max_len].  Shared by GruCell::RunBatch's callers and BiLstm.
void BuildStepMasks(const std::vector<int64_t>& lengths, int64_t max_len,
                    std::vector<tensor::Tensor>* masks,
                    std::vector<bool>* full);

}  // namespace fewner::nn
