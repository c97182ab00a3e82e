#include "nn/attention.h"

#include <cmath>

#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

SelfAttention::SelfAttention(int64_t model_dim, AttentionMask mask, util::Rng* rng)
    : model_dim_(model_dim), mask_(mask) {
  query_ = std::make_unique<Linear>(model_dim, model_dim, rng, /*with_bias=*/false);
  key_ = std::make_unique<Linear>(model_dim, model_dim, rng, /*with_bias=*/false);
  value_ = std::make_unique<Linear>(model_dim, model_dim, rng, /*with_bias=*/false);
  output_ = std::make_unique<Linear>(model_dim, model_dim, rng);
  RegisterModule("query", query_.get());
  RegisterModule("key", key_.get());
  RegisterModule("value", value_.get());
  RegisterModule("output", output_.get());
}

Tensor SelfAttention::Forward(const Tensor& x) const {
  const int64_t length = x.shape().dim(0);
  Tensor q = query_->Forward(x);
  Tensor k = key_->Forward(x);
  Tensor v = value_->Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(model_dim_));
  Tensor scores =
      tensor::MulScalar(tensor::MatMulNT(q, k), scale);  // [L, L], q·kᵀ
  if (mask_ == AttentionMask::kCausal) {
    // Additive mask: large negative above the diagonal.  A constant tensor —
    // masking carries no gradient of its own.
    std::vector<float> mask_values(static_cast<size_t>(length * length), 0.0f);
    for (int64_t i = 0; i < length; ++i) {
      for (int64_t j = i + 1; j < length; ++j) {
        mask_values[static_cast<size_t>(i * length + j)] = -1e9f;
      }
    }
    scores = tensor::Add(
        scores, Tensor::FromData(Shape{length, length}, std::move(mask_values)));
  }
  Tensor weights = tensor::SoftmaxLastDim(scores);
  return output_->Forward(tensor::MatMul(weights, v));
}

TransformerBlock::TransformerBlock(int64_t model_dim, int64_t ffn_dim,
                                   AttentionMask mask, util::Rng* rng) {
  norm1_ = std::make_unique<LayerNorm>(model_dim);
  attention_ = std::make_unique<SelfAttention>(model_dim, mask, rng);
  norm2_ = std::make_unique<LayerNorm>(model_dim);
  ffn_in_ = std::make_unique<Linear>(model_dim, ffn_dim, rng);
  ffn_out_ = std::make_unique<Linear>(ffn_dim, model_dim, rng);
  RegisterModule("norm1", norm1_.get());
  RegisterModule("attention", attention_.get());
  RegisterModule("norm2", norm2_.get());
  RegisterModule("ffn_in", ffn_in_.get());
  RegisterModule("ffn_out", ffn_out_.get());
}

Tensor TransformerBlock::Forward(const Tensor& x) const {
  Tensor attended = tensor::Add(x, attention_->Forward(norm1_->Forward(x)));
  Tensor ffn =
      ffn_out_->Forward(tensor::Relu(ffn_in_->Forward(norm2_->Forward(attended))));
  return tensor::Add(attended, ffn);
}

DilatedCausalConv::DilatedCausalConv(int64_t input_dim, int64_t filters,
                                     int64_t dilation, util::Rng* rng)
    : input_dim_(input_dim), filters_(filters), dilation_(dilation) {
  gate_ = std::make_unique<Linear>(2 * input_dim, filters, rng);
  signal_ = std::make_unique<Linear>(2 * input_dim, filters, rng);
  RegisterModule("gate", gate_.get());
  RegisterModule("signal", signal_.get());
}

Tensor DilatedCausalConv::Forward(const Tensor& x,
                                  const std::vector<int64_t>& lengths) const {
  FEWNER_CHECK(x.rank() == 2 && x.shape().dim(1) == input_dim_,
               "DilatedCausalConv expects [T, " << input_dim_ << "], got "
                                                << x.shape().ToString());
  const int64_t total = x.shape().dim(0);
  // Pair each position t with position t - dilation of the same sentence: one
  // row gather over [x; zero row], where index `total` is the zero row.
  std::vector<int64_t> rows;
  int64_t begin = 0;
  for (int64_t length : lengths) {
    for (int64_t t = 0; t < length; ++t) {
      rows.push_back(t >= dilation_ ? begin + t - dilation_ : total);
    }
    begin += length;
  }
  FEWNER_CHECK(begin == total, "DilatedCausalConv lengths sum to "
                                   << begin << ", input has " << total << " rows");
  Tensor shifted = tensor::IndexSelectRows(
      tensor::Concat({x, Tensor::Zeros(Shape{1, input_dim_})}, 0), rows);  // [T, D]
  Tensor pair = tensor::Concat({x, shifted}, 1);                           // [T, 2D]
  Tensor activation = tensor::Mul(tensor::Tanh(signal_->Forward(pair)),
                                  tensor::Sigmoid(gate_->Forward(pair)));
  return tensor::Concat({x, activation}, 1);  // dense growth: [T, D + F]
}

}  // namespace fewner::nn
