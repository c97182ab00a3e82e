// SNAIL baseline (Mishra et al. 2018, paper §4.1.2): a meta-learner combining
// temporal convolutions (to aggregate experience) with attention (to pinpoint
// specific pieces of it).
//
// Adaptation to sequence labeling (documented simplification, see DESIGN.md):
// token features from the shared CNN-BiGRU encoder are enriched with a stack
// of dilated causal convolutions (the TC blocks); each query token then
// attends over ALL support tokens, whose values are their BIO label one-hots.
// The attention read-out is a label distribution; training maximizes the gold
// label's log-probability.  Like ProtoNet there is no gradient-based
// adaptation at test time — the "fast weights" are the attention reads.
//
// Read-out: one Backbone::Hidden call each encodes the support and the query
// set; the TC blocks take the sentence lengths, so no shift crosses a
// sentence boundary, and attention and the [T, C] read-out cover all tokens.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "nn/attention.h"
#include "util/rng.h"

namespace fewner::meta {

/// TC-plus-attention meta-learner.
class Snail : public FewShotMethod {
 public:
  Snail(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "SNAIL"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  /// Encoder backbone + TC blocks + attention projections, as one module so
  /// the optimizer sees every parameter.
  class Model : public nn::Module {
   public:
    Model(const models::BackboneConfig& config, util::Rng* rng);

    std::unique_ptr<models::Backbone> backbone;
    std::unique_ptr<nn::DilatedCausalConv> tc1;
    std::unique_ptr<nn::DilatedCausalConv> tc2;
    std::unique_ptr<nn::Linear> key_proj;
    std::unique_ptr<nn::Linear> query_proj;
    /// Final classifier over [token features ; attention label read-out] — the
    /// SNAIL output layer that can re-weight the read against class priors.
    std::unique_ptr<nn::Linear> classifier;
    int64_t tc_dim = 0;
    int64_t attn_dim = 0;
  };

  Model* model() { return model_.get(); }

 private:
  // The forward helpers take the model explicitly so the episode-parallel
  // trainer can run them against per-worker replicas.

  /// Encoder features + TC enrichment of every token of `sentences`,
  /// [T, tc_dim]: one Backbone::Hidden call on their packed batch, then the
  /// TC blocks, which never shift across a sentence boundary.
  static tensor::Tensor Enrich(
      const Model& m, const std::vector<models::EncodedSentence>& sentences);

  /// Per-token log label distribution [T, max_tags] for enriched query
  /// tokens [T, tc_dim], every query token at once, given stacked support
  /// keys and their label one-hots.
  static tensor::Tensor QueryLogProbs(const Model& m,
                                      const tensor::Tensor& enriched,
                                      const tensor::Tensor& support_keys,
                                      const tensor::Tensor& support_labels,
                                      const std::vector<bool>& valid_tags);

  /// Builds (keys [T, attn_dim], labels [T, max_tags]) from the support set.
  static void BuildSupport(const Model& m,
                           const std::vector<models::EncodedSentence>& support,
                           tensor::Tensor* keys, tensor::Tensor* labels);

  static tensor::Tensor EpisodeLoss(const Model& m,
                                    const models::EncodedEpisode& episode);

  std::unique_ptr<Model> model_;
};

}  // namespace fewner::meta
