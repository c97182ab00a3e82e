// ProtoNet baseline (Snell et al. 2017 adapted to tokens, paper §4.1.2):
// sequence labeling as per-token classification in a learned metric space.
// Class prototypes are the mean encoder features of support tokens carrying
// each BIO tag; query tokens are classified by (negative squared) distance to
// the prototypes.  There is no CRF and no gradient-based adaptation — the
// adaptation is entirely the recomputation of prototypes.
//
// Read-out: one Backbone::Hidden call each encodes the support and the query
// set; prototypes and the [T, C] logits cover all their tokens at once.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Token-level prototypical network.
class ProtoNet : public FewShotMethod {
 public:
  ProtoNet(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "ProtoNet"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  models::Backbone* backbone() { return backbone_.get(); }

 private:
  // The forward helpers take the backbone explicitly so the episode-parallel
  // trainer can run them against per-worker replicas.

  /// Episode loss: cross-entropy of query tokens against prototype distances.
  static tensor::Tensor EpisodeLoss(const models::Backbone& net,
                                    const models::EncodedEpisode& episode);

  /// Per-token logits [T, max_tags] for query token features [T, D] (every
  /// query token at once, Backbone::Hidden rows) given prototypes
  /// [max_tags, D] and a present-class mask.
  static tensor::Tensor TokenLogits(const tensor::Tensor& queries,
                                    const tensor::Tensor& prototypes,
                                    const std::vector<bool>& class_present);

  /// Builds prototypes from the support set's Backbone::Hidden rows;
  /// `class_present` marks classes with at least one support token.
  static tensor::Tensor BuildPrototypes(
      const models::Backbone& net,
      const std::vector<models::EncodedSentence>& support,
      std::vector<bool>* class_present);

  std::unique_ptr<models::Backbone> backbone_;
};

}  // namespace fewner::meta
