// LSTM cell and bidirectional LSTM encoder — the classic BiLSTM-CRF context
// encoder (Ma & Hovy 2016, cited in the paper's survey §2.1), offered as an
// alternative to the BiGRU.  The paper's backbone choice is ablated in
// bench/ablation_encoder.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fewner::nn {

/// LSTM cell with standard gate conventions (i, f, g, o):
///   i = σ(x W_i + h U_i + b_i)       f = σ(x W_f + h U_f + b_f)
///   g = tanh(x W_g + h U_g + b_g)    o = σ(x W_o + h U_o + b_o)
///   c' = f ⊙ c + i ⊙ g               h' = o ⊙ tanh(c')
/// The forget-gate bias initializes to 1 (standard trick).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);

  /// Projects a sequence's inputs once: [L, input] -> [L, 4H] (gate order i|f|g|o).
  tensor::Tensor ProjectInput(const tensor::Tensor& x) const;

  /// One step; returns (h', c') through output parameters.
  void Step(const tensor::Tensor& projected_row, const tensor::Tensor& h,
            const tensor::Tensor& c, tensor::Tensor* h_next,
            tensor::Tensor* c_next) const;

  int64_t hidden_dim() const { return hidden_dim_; }
  int64_t input_dim() const { return input_dim_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  tensor::Tensor w_ih_;  ///< [input, 4H]
  tensor::Tensor w_hh_;  ///< [H, 4H]
  tensor::Tensor bias_;  ///< [4H], forget slice initialized to 1
};

/// Bidirectional LSTM: concatenates forward and backward hidden states per
/// token.
class BiLstm : public Module {
 public:
  BiLstm(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);

  /// Batched time loop over padded lanes: [B, L, input] -> [B, L, 2H].  Same
  /// masking contract as BiGru::ForwardBatch — inactive lanes carry (h, c)
  /// through unchanged via exact Where selects.
  tensor::Tensor ForwardBatch(const tensor::Tensor& x,
                              const std::vector<int64_t>& lengths) const;

  int64_t output_dim() const { return 2 * hidden_dim_; }
  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  tensor::Tensor RunDirectionBatch(const LstmCell& cell, const tensor::Tensor& x,
                                   const std::vector<tensor::Tensor>& step_masks,
                                   const std::vector<bool>& step_full,
                                   bool reverse) const;

  int64_t hidden_dim_;
  std::unique_ptr<LstmCell> forward_cell_;
  std::unique_ptr<LstmCell> backward_cell_;
};

}  // namespace fewner::nn
