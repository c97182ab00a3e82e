// Self-attention blocks used by the pre-trained-LM baselines (GPT2/BERT-like)
// and by the causal-attention component of SNAIL.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace fewner::nn {

/// Masking mode for self-attention.
enum class AttentionMask {
  kNone,    ///< full bidirectional attention (BERT-style)
  kCausal,  ///< position i attends to j <= i (GPT/SNAIL-style)
};

/// Single-head scaled dot-product self-attention with output projection.
class SelfAttention : public Module {
 public:
  SelfAttention(int64_t model_dim, AttentionMask mask, util::Rng* rng);

  /// [L, D] -> [L, D].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

 private:
  int64_t model_dim_;
  AttentionMask mask_;
  std::unique_ptr<Linear> query_;
  std::unique_ptr<Linear> key_;
  std::unique_ptr<Linear> value_;
  std::unique_ptr<Linear> output_;
};

/// Pre-norm transformer block: x + Attn(LN(x)), then x + FFN(LN(x)).
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t model_dim, int64_t ffn_dim, AttentionMask mask,
                   util::Rng* rng);

  /// [L, D] -> [L, D].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

 private:
  std::unique_ptr<LayerNorm> norm1_;
  std::unique_ptr<SelfAttention> attention_;
  std::unique_ptr<LayerNorm> norm2_;
  std::unique_ptr<Linear> ffn_in_;
  std::unique_ptr<Linear> ffn_out_;
};

/// Dilated causal convolution layer — the "temporal convolution" building
/// block of SNAIL's TC blocks.  Concatenates a gated conv feature of the
/// receptive field to the input (dense / skip-style growth).
class DilatedCausalConv : public Module {
 public:
  DilatedCausalConv(int64_t input_dim, int64_t filters, int64_t dilation,
                    util::Rng* rng);

  /// [T, input_dim] -> [T, input_dim + filters] over sentences stacked row
  /// after row (`lengths` sum to T).  Position t pairs with position
  /// t - dilation of its own sentence, zeros before that sentence's start, so
  /// nothing shifts across a sentence boundary.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const std::vector<int64_t>& lengths) const;

  int64_t output_dim() const { return input_dim_ + filters_; }

 private:
  int64_t input_dim_;
  int64_t filters_;
  int64_t dilation_;
  std::unique_ptr<Linear> gate_;    ///< [2*input_dim -> filters]
  std::unique_ptr<Linear> signal_;  ///< [2*input_dim -> filters]
};

}  // namespace fewner::nn
