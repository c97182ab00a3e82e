// Frozen-LM + CRF baselines (paper §4.1.2, "dynamic token representation"):
// a pre-trained language-model encoder produces contextual features which stay
// FROZEN; a linear emission layer + CRF is stacked on top.  The stack is
// trained on the support sets of training tasks, and at test time only the
// CRF stack is fine-tuned on the new task's support set (the paper's Flair
// framework does not allow fine-tuning the LM itself).

#pragma once

#include <memory>
#include <unordered_map>

#include "crf/linear_chain_crf.h"
#include "meta/method.h"
#include "models/lm_encoder.h"
#include "nn/layers.h"
#include "util/rng.h"

namespace fewner::meta {

/// CRF tagger over frozen LM features.
class LmCrfTagger : public FewShotMethod {
 public:
  /// Takes a PRE-TRAINED encoder (ownership shared with the experiment, which
  /// pre-trains each LM once on the unlabeled corpus).
  LmCrfTagger(std::shared_ptr<models::PretrainedLmEncoder> encoder,
              int64_t max_tags, util::Rng* rng);

  std::string name() const override { return models::LmKindName(encoder_->kind()); }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

 private:
  /// A support or query set packed once: its PackBatch layout and its frozen
  /// LM features as one zero-padded [B·Lmax, F] constant.  Features are
  /// cached by source pointer (the LM never changes after pre-training).
  struct PackedSet {
    models::EncodedBatch batch;
    tensor::Tensor features;
  };
  PackedSet Pack(const std::vector<models::EncodedSentence>& sentences);

  /// The head's emissions for a packed set, [B, Lmax, max_tags].
  tensor::Tensor Emissions(const PackedSet& set) const;

  /// Mean CRF NLL over the set's sentences.
  tensor::Tensor BatchLoss(const PackedSet& set, const std::vector<bool>& valid_tags);

  /// The trainable CRF stack (emission projection + CRF).
  class Head : public nn::Module {
   public:
    Head(int64_t feature_dim, int64_t max_tags, util::Rng* rng);
    std::unique_ptr<nn::Linear> emission;
    std::unique_ptr<crf::LinearChainCrf> crf;
  };

  std::shared_ptr<models::PretrainedLmEncoder> encoder_;
  Head head_;
  std::unordered_map<const data::Sentence*, tensor::Tensor> feature_cache_;
  int64_t test_steps_ = TrainConfig{}.inner_steps_test;
  float finetune_lr_ = TrainConfig{}.inner_lr;
};

}  // namespace fewner::meta
