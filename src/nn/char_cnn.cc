#include "nn/char_cnn.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {
/// A word's own padded length: short words are padded with the reserved id 0
/// up to the widest filter, so every filter has at least one window.
int64_t PaddedLength(const std::vector<int64_t>& word, int64_t max_width) {
  return std::max(static_cast<int64_t>(word.size()), max_width);
}
}  // namespace

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
  if (!tensor::EvalMode::active()) {
    // Graph mode: one row per token at the longest own padded length.
    // Deduplicating would sum a word's occurrence grads before the dW GEMM,
    // and bucketing would split dW into one GEMM per bucket; either changes
    // the order dW is summed in, and so the trained θ.
    std::vector<const std::vector<int64_t>*> words;
    words.reserve(chars.size());
    int64_t t_max = max_width_;
    for (const auto& word : chars) {
      words.push_back(&word);
      t_max = std::max(t_max, static_cast<int64_t>(word.size()));
    }
    return ConvolveAt(words, t_max);
  }

  // Eval: rows are independent, so each word is convolved at its own padded
  // length, one ConvolveAt per length bucket.  Words already in ascending
  // padded length (Backbone's distinct tokens) come back in order; otherwise
  // the rows are gathered back into token order.
  const auto padded = [&](int64_t i) {
    return PaddedLength(chars[static_cast<size_t>(i)], max_width_);
  };
  std::vector<int64_t> order(chars.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](int64_t a, int64_t b) { return padded(a) < padded(b); });
  std::vector<Tensor> buckets;
  std::vector<const std::vector<int64_t>*> bucket;
  bool in_order = true;
  for (size_t k = 0; k < order.size(); ++k) {
    in_order = in_order && order[k] == static_cast<int64_t>(k);
    bucket.push_back(&chars[static_cast<size_t>(order[k])]);
    const int64_t t = padded(order[k]);
    if (k + 1 == order.size() || padded(order[k + 1]) != t) {
      buckets.push_back(ConvolveAt(bucket, t));
      bucket.clear();
    }
  }
  Tensor rows = buckets.size() == 1 ? buckets.front() : tensor::Concat(buckets, 0);
  if (in_order) return rows;  // [N, output_dim]
  std::vector<int64_t> row_of(chars.size());
  for (size_t k = 0; k < order.size(); ++k) {
    row_of[static_cast<size_t>(order[k])] = static_cast<int64_t>(k);
  }
  return tensor::IndexSelectRows(rows, row_of);  // [N, output_dim]
}

Tensor CharCnn::ConvolveAt(const std::vector<const std::vector<int64_t>*>& words,
                           int64_t t) const {
  const int64_t n = static_cast<int64_t>(words.size());
  std::vector<int64_t> flat_ids(static_cast<size_t>(n * t), 0);
  for (int64_t i = 0; i < n; ++i) {
    const auto& word = *words[static_cast<size_t>(i)];
    std::copy(word.begin(), word.end(), flat_ids.begin() + static_cast<size_t>(i * t));
  }

  Tensor embedded = char_embedding_->Forward(flat_ids);  // [N*T, char_dim]
  Tensor embedded3 = tensor::Reshape(embedded, Shape{n, t, config_.char_dim});

  std::vector<Tensor> pooled;
  pooled.reserve(filters_.size());
  for (size_t i = 0; i < filters_.size(); ++i) {
    const int64_t width = config_.filter_widths[i];
    const int64_t m = t - width + 1;  // windows per token at length T
    Tensor windows = tensor::UnfoldTimeBatch(embedded3, width);  // [N, M, w*D]
    Tensor conv = tensor::Relu(filters_[i]->Forward(
        tensor::Reshape(windows, Shape{n * m, width * config_.char_dim})));
    Tensor conv3 =
        tensor::Reshape(conv, Shape{n, m, config_.filters_per_width});
    // Windows past a token's own padded length exist only because other
    // tokens are longer; sink them far below any ReLU output so the ascending
    // max-over-time scan resolves to the same argmax as the token alone.
    // Valid windows get an exact +0.0f (bitwise identity on ReLU outputs).
    // When every token's own padded length is T there is nothing to sink.
    std::vector<float> mask(static_cast<size_t>(n * m), 0.0f);
    bool any_invalid = false;
    for (int64_t tok = 0; tok < n; ++tok) {
      const int64_t own_t = PaddedLength(*words[static_cast<size_t>(tok)], max_width_);
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
