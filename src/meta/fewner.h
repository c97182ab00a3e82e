// FEWNER (paper §3.2, Algorithm 1): meta-learning with task-specific context
// parameters.
//
// The CNN-BiGRU-CRF backbone θ is task-independent and meta-learned across
// tasks; a low-dimensional context vector φ is (re)learned from zero inside
// every task by a few steps of gradient descent on the support loss, and
// conditions the backbone through FiLM (method B) or input concatenation
// (method A).  The outer update differentiates the query loss through the
// inner updates — a genuine second-order gradient w.r.t. θ — while test-time
// adaptation touches only φ and needs no second-order computation at all.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace fewner::meta {

/// The paper's approach.
class Fewner : public FewShotMethod {
 public:
  /// `config.conditioning` must be kFilm or kConcat, with context_dim > 0.
  Fewner(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "FewNER"; }

  void Train(const data::EpisodeSampler& sampler,
             const models::EpisodeEncoder& encoder,
             const TrainConfig& config) override;

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  /// Inner loop (Eq. 5): runs `steps` gradient steps on φ starting from zero,
  /// against an explicit backbone — the episode-parallel trainer runs it on
  /// per-worker replicas, and AdaptedTagger on the served backbone.  With
  /// `create_graph` the returned φ_k stays differentiable w.r.t. θ.  When the
  /// backbone is in the dropout-free regime (test time, or training with
  /// dropout == 0) the θ-prefix over the support set is computed once and
  /// every step runs the φ-suffix only; otherwise it falls back to per-step
  /// forwards, since per-(episode, call, lane) dropout masks legitimately
  /// differ per step.
  static tensor::Tensor AdaptContextOn(
      const models::Backbone& net,
      const std::vector<models::EncodedSentence>& support,
      const std::vector<bool>& valid_tags, int64_t steps, float inner_lr,
      bool create_graph);

  models::Backbone* backbone() { return backbone_.get(); }

  /// Inner steps used at test time; taken from the last Train() config, or the
  /// TrainConfig default before training.
  int64_t test_inner_steps() const { return test_inner_steps_; }
  float inner_lr() const { return inner_lr_; }

 private:
  std::unique_ptr<models::Backbone> backbone_;
  util::Rng rng_;
  int64_t test_inner_steps_ = TrainConfig{}.inner_steps_test;
  float inner_lr_ = TrainConfig{}.inner_lr;
};

}  // namespace fewner::meta
