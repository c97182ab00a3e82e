// Pre-trained language-model encoders — the stand-ins for the paper's
// dynamic-token-representation baselines (GPT2, Flair, ELMo, BERT, XLNet).
//
// Each variant is pre-trained from scratch on a large unlabeled synthetic
// corpus, then FROZEN; the few-shot baseline stacks a CRF on top and only the
// CRF is fine-tuned (mirroring the paper's Flair-framework restriction, §4.1.2).
// The architectures follow the originals in miniature:
//   kGpt2  — causal transformer, next-token objective
//   kBert  — bidirectional transformer, masked-token objective
//   kXlnet — two causal streams (left-to-right and right-to-left) averaged,
//            approximating permutation-order training (documented simplification)
//   kElmo  — word-level forward+backward GRU language model
//   kFlair — character-level forward+backward GRU LM; word features are taken
//            at word boundaries, exactly like contextual string embeddings

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/encoding.h"
#include "nn/attention.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "text/vocab.h"

namespace fewner::models {

enum class LmKind { kGpt2, kFlair, kElmo, kBert, kXlnet };

/// Display name matching the paper's tables.
std::string LmKindName(LmKind kind);

/// All five baseline kinds in table order.
std::vector<LmKind> AllLmKinds();

/// Size profile of the miniature LMs.
struct LmConfig {
  int64_t model_dim = 32;
  int64_t num_layers = 2;
  int64_t ffn_dim = 64;
  int64_t max_len = 96;     ///< learned positions (transformers)
  int64_t gru_hidden = 24;  ///< ELMo / Flair recurrent size
  int64_t char_dim = 16;    ///< Flair character embedding size
};

/// One pre-trainable, freezable LM encoder.
class PretrainedLmEncoder : public nn::Module {
 public:
  PretrainedLmEncoder(LmKind kind, const LmConfig& config,
                      const text::Vocab* word_vocab, const text::Vocab* char_vocab,
                      util::Rng* rng);

  /// Language-modeling loss of one sentence (used during pre-training).
  tensor::Tensor LmLoss(const EncodedSentence& sentence) const;

  /// Pre-trains with Adam on the given sentences for `steps` sentence-updates.
  void Pretrain(const std::vector<EncodedSentence>& sentences, int64_t steps,
                float lr, util::Rng* rng);

  /// Contextual features [L, feature_dim()].  Callers treat the encoder as
  /// frozen by detaching (see feature extraction in the baseline tagger).
  tensor::Tensor Encode(const EncodedSentence& sentence) const;

  int64_t feature_dim() const;
  LmKind kind() const { return kind_; }

 private:
  /// Features of `blocks_`, or with `reverse` of `blocks_rev_` run over the
  /// reversed sentence (XLNet's right-to-left stream), in textual order.
  tensor::Tensor TransformerFeatures(const std::vector<int64_t>& word_ids,
                                     bool reverse) const;
  tensor::Tensor CrossEntropy(const tensor::Tensor& logits,
                              const std::vector<int64_t>& targets,
                              const std::vector<bool>* predict_mask) const;

  LmKind kind_;
  LmConfig config_;
  const text::Vocab* word_vocab_;
  const text::Vocab* char_vocab_;

  // Shared word-level pieces (transformers + ELMo).
  std::unique_ptr<nn::Embedding> word_embedding_;
  std::unique_ptr<nn::Embedding> position_embedding_;
  std::unique_ptr<nn::Linear> vocab_head_;

  // Transformer stacks (GPT2 / BERT use `blocks_`; XLNet also `blocks_rev_`).
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_rev_;

  // ELMo recurrent LM.
  std::unique_ptr<nn::GruCell> forward_gru_;
  std::unique_ptr<nn::GruCell> backward_gru_;

  // Flair character-level LM.
  std::unique_ptr<nn::Embedding> char_embedding_;
  std::unique_ptr<nn::GruCell> char_forward_gru_;
  std::unique_ptr<nn::GruCell> char_backward_gru_;
  std::unique_ptr<nn::Linear> char_head_;

  tensor::Tensor mask_embedding_;  ///< BERT's [MASK] input vector
  mutable util::Rng mask_rng_;
};

}  // namespace fewner::models
