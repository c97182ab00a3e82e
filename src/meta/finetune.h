// FineTune baseline (paper §4.1.2): the CNN-BiGRU-CRF backbone trained
// conventionally on the support sets of training tasks, with no adaptation
// strategy beyond plain fine-tuning on a test task's support set.  This is the
// floor every meta-learning method is compared against.

#pragma once

#include <functional>
#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "nn/module.h"
#include "util/rng.h"

namespace fewner::meta {

/// The clip-5 SGD fine-tune: `steps` times, Grad of `loss()` against
/// `module`'s parameters, global-norm clip to 5.0 and an nn::Sgd step at `lr`
/// in place.  Returns the last step's loss (0 when `steps` is 0).  The caller
/// snapshots and restores the parameters as needed.
double SgdSteps(nn::Module* module, int64_t steps, float lr,
                const std::function<tensor::Tensor()>& loss);

/// SgdSteps on `net`'s batched support loss (FineTune and Reptile).
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
