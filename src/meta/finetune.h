// FineTune baseline (paper §4.1.2): the CNN-BiGRU-CRF backbone trained
// conventionally on the support sets of training tasks, with no adaptation
// strategy beyond plain fine-tuning on a test task's support set.  This is the
// floor every meta-learning method is compared against.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Runs `steps` SGD steps (global-norm clip 5.0) on the support loss against
/// `net`'s parameters in place; returns the last step's loss.  The caller
/// snapshots and restores the parameters as needed.
double SgdOnSupport(models::Backbone* net,
                    const std::vector<models::EncodedSentence>& support,
                    const std::vector<bool>& valid_tags, int64_t steps, float lr);

/// Test-time whole-network fine-tuning, shared by FineTune and Reptile: puts
/// `net` in eval mode, runs SgdOnSupport on the episode's support set, decodes
/// its query sentences and restores `net`'s parameters.
std::vector<std::vector<int64_t>> FineTuneAndDecode(
    models::Backbone* net, const models::EncodedEpisode& episode, int64_t steps,
    float lr);

/// Conventional train-then-fine-tune baseline.
class FineTune : public FewShotMethod {
 public:
  FineTune(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "FineTune"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  models::Backbone* backbone() { return backbone_.get(); }

 private:
  std::unique_ptr<models::Backbone> backbone_;
  int64_t test_steps_ = TrainConfig{}.inner_steps_test;
  float finetune_lr_ = TrainConfig{}.inner_lr;
};

}  // namespace fewner::meta
