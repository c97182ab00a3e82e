// Reptile (Nichol et al. 2018): a first-order optimization-based meta-learner
// from the same family as MAML (paper §2.2's optimization-based category).
// Instead of differentiating through the inner loop, Reptile runs a few SGD
// steps on a task and moves the initialization toward the adapted weights.
// This implementation uses the batched variant from the same paper:
//   θ ← θ + ε · mean_task(θ'_task − θ),
// which makes the per-task work independent (episode-parallelizable) and the
// update a deterministic reduction over task deltas.
// Implemented as an extension beyond the paper's baseline set (see
// bench/extension_methods) — it brackets MAML from the cheap side the way
// FEWNER brackets it from the structured side.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// First-order initialization-learning baseline.
class Reptile : public FewShotMethod {
 public:
  Reptile(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "Reptile"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  models::Backbone* backbone() { return backbone_.get(); }

 private:
  std::unique_ptr<models::Backbone> backbone_;
  int64_t test_steps_ = TrainConfig{}.inner_steps_test;
  float inner_lr_ = TrainConfig{}.inner_lr;
};

}  // namespace fewner::meta
