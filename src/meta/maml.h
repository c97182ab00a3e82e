// MAML baseline (Finn et al. 2017, paper §2.2): model-agnostic meta-learning
// over the full CNN-BiGRU-CRF backbone.  Unlike FEWNER there is no
// task-specific/ task-independent split — the inner loop updates the ENTIRE
// network, and the outer loop therefore needs second-order gradients with
// respect to every parameter (which is what makes MAML slower and more prone
// to few-shot overfitting; see the paper's Fig. 1 discussion).

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Full-network optimization-based meta-learner.
class Maml : public FewShotMethod {
 public:
  /// `config.conditioning` is forced to kNone (MAML has no context params).
  Maml(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "MAML"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  /// Inner loop over all parameters; returns θ' (Eq. 1).  With `create_graph`
  /// the adapted parameters remain differentiable w.r.t. the originals.  Runs
  /// against an explicit backbone — the episode-parallel trainer passes its
  /// per-worker replicas (the ParameterPatch slot swaps stay confined to that
  /// replica), AdaptAndPredict the method's own.
  static std::vector<tensor::Tensor> InnerAdaptOn(
      models::Backbone* net, const std::vector<models::EncodedSentence>& support,
      const std::vector<bool>& valid_tags, int64_t steps, float inner_lr,
      bool create_graph);

  models::Backbone* backbone() { return backbone_.get(); }

 private:
  std::unique_ptr<models::Backbone> backbone_;
  int64_t test_inner_steps_ = TrainConfig{}.inner_steps_test;
  float inner_lr_ = TrainConfig{}.inner_lr;
};

}  // namespace fewner::meta
