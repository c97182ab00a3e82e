// Matching Network baseline (Vinyals et al. 2016, the paper's reference [50]
// that defined the N-way K-shot setting): metric-based few-shot classification
// at the token level.  A query token's label distribution is the
// cosine-similarity-weighted vote over ALL support tokens' labels — unlike
// ProtoNet there is no class averaging, and unlike SNAIL no temporal
// convolution or learned read-out.  An extension beyond the paper's baseline
// set (see bench/extension_methods).
//
// Read-out: one Backbone::Hidden call each encodes the support and the query
// set; the cosine attention and the [T, C] votes cover all tokens at once.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Token-level matching network.
class MatchingNet : public FewShotMethod {
 public:
  MatchingNet(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "MatchingNet"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  models::Backbone* backbone() { return backbone_.get(); }

 private:
  // The forward helpers take the backbone explicitly so the episode-parallel
  // trainer can run them against per-worker replicas.

  /// L2-normalized encoder features [T, D] of every token of `sentences`:
  /// one Backbone::Hidden call on their packed batch.
  static tensor::Tensor NormalizedFeatures(
      const models::Backbone& net,
      const std::vector<models::EncodedSentence>& sentences);

  /// Log label distribution [T, max_tags] for normalized query token
  /// features [T, D], every query token at once.
  tensor::Tensor QueryLogProbs(const tensor::Tensor& queries,
                               const tensor::Tensor& support_features,
                               const tensor::Tensor& support_labels) const;

  /// Builds (normalized features [T, D], label one-hots [T, max_tags]) from
  /// the support set.
  static void BuildSupport(const models::Backbone& net,
                           const std::vector<models::EncodedSentence>& support,
                           tensor::Tensor* features, tensor::Tensor* labels);

  tensor::Tensor EpisodeLoss(const models::Backbone& net,
                             const models::EncodedEpisode& episode) const;

  std::unique_ptr<models::Backbone> backbone_;
  float temperature_ = 10.0f;  ///< sharpness of the cosine attention
};

}  // namespace fewner::meta
