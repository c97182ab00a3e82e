#include "nn/char_cnn.h"

#include <algorithm>
#include <string>

#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

CharCnn::CharCnn(const CharCnnConfig& config, util::Rng* rng) : config_(config) {
  FEWNER_CHECK(config.char_vocab_size > 0, "CharCnn requires a character vocabulary");
  FEWNER_CHECK(!config.filter_widths.empty(), "CharCnn requires filter widths");
  for (int64_t w : config.filter_widths) max_width_ = std::max(max_width_, w);
  char_embedding_ =
      std::make_unique<Embedding>(config.char_vocab_size, config.char_dim, rng);
  RegisterModule("char_embedding", char_embedding_.get());
  for (size_t i = 0; i < config.filter_widths.size(); ++i) {
    const int64_t width = config.filter_widths[i];
    filters_.push_back(std::make_unique<Linear>(width * config.char_dim,
                                                config.filters_per_width, rng));
    RegisterModule("filter_w" + std::to_string(width), filters_[i].get());
  }
}

int64_t CharCnn::output_dim() const {
  return static_cast<int64_t>(config_.filter_widths.size()) *
         config_.filters_per_width;
}

Tensor CharCnn::ForwardBatch(const std::vector<std::vector<int64_t>>& chars) const {
  FEWNER_CHECK(!chars.empty(), "CharCnn::ForwardBatch on empty batch");
  const int64_t n = static_cast<int64_t>(chars.size());
  // Common padded char length: every token gets the same T so one [N, T, D]
  // tensor covers the batch.  Each token's own padded length is
  // max(|word|, max_width_) (short words padded with the reserved id 0); T is
  // the max over tokens.
  int64_t t_max = max_width_;
  for (const auto& word : chars) {
    t_max = std::max(t_max, static_cast<int64_t>(word.size()));
  }
  std::vector<int64_t> flat_ids(static_cast<size_t>(n * t_max), 0);
  for (int64_t i = 0; i < n; ++i) {
    const auto& word = chars[static_cast<size_t>(i)];
    std::copy(word.begin(), word.end(),
              flat_ids.begin() + static_cast<size_t>(i * t_max));
  }

  Tensor embedded = char_embedding_->Forward(flat_ids);  // [N*T, char_dim]
  Tensor embedded3 =
      tensor::Reshape(embedded, Shape{n, t_max, config_.char_dim});

  std::vector<Tensor> pooled;
  pooled.reserve(filters_.size());
  for (size_t i = 0; i < filters_.size(); ++i) {
    const int64_t width = config_.filter_widths[i];
    const int64_t m = t_max - width + 1;  // windows per token at common T
    Tensor windows = tensor::UnfoldTimeBatch(embedded3, width);  // [N, M, w*D]
    Tensor conv = tensor::Relu(filters_[i]->Forward(
        tensor::Reshape(windows, Shape{n * m, width * config_.char_dim})));
    Tensor conv3 =
        tensor::Reshape(conv, Shape{n, m, config_.filters_per_width});
    // Windows past a token's own padded length exist only because other
    // tokens are longer; sink them far below any ReLU output so the ascending
    // max-over-time scan resolves to the same argmax as the token alone.
    // Valid windows get an exact +0.0f (bitwise identity on ReLU outputs).
    std::vector<float> mask(static_cast<size_t>(n * m), 0.0f);
    bool any_invalid = false;
    for (int64_t tok = 0; tok < n; ++tok) {
      const int64_t own_t = std::max(
          static_cast<int64_t>(chars[static_cast<size_t>(tok)].size()),
          max_width_);
      for (int64_t w = own_t - width + 1; w < m; ++w) {
        mask[static_cast<size_t>(tok * m + w)] = -1e30f;
        any_invalid = true;
      }
    }
    Tensor masked = conv3;
    if (any_invalid) {
      masked = tensor::Add(
          conv3, Tensor::FromData(Shape{n, m, 1}, std::move(mask)));
    }
    pooled.push_back(tensor::MaxAxis(masked, 1, /*keepdim=*/false));  // [N, F]
  }
  return tensor::Concat(pooled, 1);  // [N, output_dim]
}

}  // namespace fewner::nn
