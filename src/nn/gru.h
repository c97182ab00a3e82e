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
  /// this matmul out of the recurrence over all B·L slots.
  tensor::Tensor ProjectInput(const tensor::Tensor& x) const;

  /// One step given pre-projected input rows [B, 3H] and states [B, H].
  /// Every op inside is per-row, so lane b of a batched step is
  /// bitwise-equal to a B=1 step on that lane alone.
  tensor::Tensor Step(const tensor::Tensor& projected_row,
                      const tensor::Tensor& h) const;

  /// The one GRU time loop, [B, L, input] -> [B, L, H]: one hoisted
  /// ProjectInput, then one Step per timestep over all B lanes (`reverse`
  /// runs back to front; states stay in textual order).  Lanes inactive at
  /// step t per BuildStepMasks carry their state through an exact Where, so
  /// lane b's real positions are bitwise-equal to a run on lane b alone.
  tensor::Tensor RunBatch(const tensor::Tensor& x,
                          const std::vector<tensor::Tensor>& step_masks,
                          const std::vector<bool>& step_full,
                          bool reverse) const;

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

  int64_t output_dim() const { return 2 * hidden_dim(); }
  int64_t hidden_dim() const { return forward_cell_->hidden_dim(); }

 private:
  std::unique_ptr<GruCell> forward_cell_;
  std::unique_ptr<GruCell> backward_cell_;
};

/// Per-step lane activity masks for a padded batch: element t is a [B, 1]
/// tensor with 1.0 where t < lengths[b], plus a parallel all-lanes-active
/// flag so full steps can skip the Where select entirely.  Shared by
/// GruCell::RunBatch's callers and BiLstm.
void BuildStepMasks(const std::vector<int64_t>& lengths, int64_t max_len,
                    std::vector<tensor::Tensor>* masks,
                    std::vector<bool>* full);

}  // namespace fewner::nn
