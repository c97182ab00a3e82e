// Character-level CNN (paper §3.2.2, Fig. 3): per-word character embeddings
// are convolved with several filter widths and max-pooled over time, yielding
// a morphology-aware word representation.  Table 5 shows this component is the
// single most important one for few-shot NER (OOTV handling).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace fewner::nn {

/// Configuration for the character CNN.
struct CharCnnConfig {
  int64_t char_vocab_size = 0;
  int64_t char_dim = 16;                       ///< character embedding size
  std::vector<int64_t> filter_widths = {2, 3, 4};
  int64_t filters_per_width = 10;              ///< paper: 50 each (150 total)
};

/// Multi-width character convolution with max-over-time pooling.
class CharCnn : public Module {
 public:
  CharCnn(const CharCnnConfig& config, util::Rng* rng);

  /// Convolves a list of tokens.  `chars` holds the character ids of each
  /// token (for a padded batch, all B*Lmax tokens in lane-major order;
  /// padding tokens may be empty).  Returns [chars.size(), output_dim()], row
  /// i bitwise-equal to convolving chars[i] alone at its own padded length
  /// max(|chars[i]|, widest filter).
  ///
  /// Under tensor::EvalMode each distinct character sequence (the empty
  /// padding token included) is convolved once, in buckets of equal own
  /// padded length, and the rows are gathered back into token order.  In
  /// graph mode every token is convolved at one common length, the longest
  /// own padded length: windows that exist only because other tokens are
  /// longer are pushed below zero with an additive -1e30 before
  /// max-over-time, which never wins against a ReLU output.  Graph mode keeps
  /// one row per token and one GEMM per filter width so the weight gradient
  /// sums the same window rows in the same order whatever the duplicates.
  tensor::Tensor ForwardBatch(const std::vector<std::vector<int64_t>>& chars) const;

  /// Total feature size: filter_widths.size() * filters_per_width.
  int64_t output_dim() const;

 private:
  /// The convolution behind both plans: `words` padded with id 0 to the
  /// common length `t` (at least each word's own padded length), one [N, T, D]
  /// embedding gather, then per filter width one unfold, GEMM, ReLU and
  /// max-over-time, with the -1e30 mask on windows past a word's own padded
  /// length (none when every word's own padded length is `t`).  Returns
  /// [words.size(), output_dim()].
  tensor::Tensor ConvolveAt(const std::vector<const std::vector<int64_t>*>& words,
                            int64_t t) const;

  CharCnnConfig config_;
  int64_t max_width_ = 0;  ///< widest filter; minimum padded word length
  std::unique_ptr<Embedding> char_embedding_;
  std::vector<std::unique_ptr<Linear>> filters_;  ///< one [w*char_dim -> F] per width
};

}  // namespace fewner::nn
