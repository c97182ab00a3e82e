// Common interface for all few-shot NER methods (FEWNER and the nine
// baselines).  A method is trained on episodes drawn from a source sampler,
// then evaluated by adapting to each held-out episode's support set and
// predicting its query set.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "data/episode_sampler.h"
#include "models/encoding.h"
#include "tensor/tensor.h"

namespace fewner::meta {

/// Shared training hyper-parameters (paper §4.1.3 defaults, CPU-scaled
/// iteration count).
struct TrainConfig {
  int64_t iterations = 60;        ///< outer-loop iterations (paper: to convergence)
  int64_t meta_batch = 8;         ///< tasks per outer update (paper: 8)
  int64_t inner_steps_train = 2;  ///< paper: 2
  int64_t inner_steps_test = 8;   ///< paper: 8
  float inner_lr = 0.1f;          ///< α (paper: 0.1)
  float meta_lr = 8e-4f;          ///< β (paper: 0.0008)
  float grad_clip = 5.0f;         ///< paper: 5.0
  float weight_decay = 1e-7f;     ///< paper: fixed L2 of 1e-7
  /// Meta learning-rate decay (paper: 0.9 every 5000 tasks).  Only FEWNER
  /// and MAML apply it; the other methods train at a constant meta_lr.
  float lr_decay = 0.9f;
  int64_t lr_decay_every = 5000;  ///< tasks between decays; must be > 0
  int64_t train_query_size = 3;   ///< query sentences used per training task
  /// Cap on support sentences consumed per TRAINING task (0 = unlimited).
  /// 5-shot supports reach ~25 sentences; capping bounds the per-iteration
  /// cost of the second-order inner loop on CPU.  Test-time adaptation always
  /// uses the full support set, matching the paper's protocol.
  int64_t train_support_cap = 10;
  /// First-order approximation: detach the inner gradients during training
  /// (FOMAML-style).  The paper's methods use exact second-order gradients;
  /// this switch exists for the design-choice ablation bench.
  bool first_order = false;
  /// Worker threads for episode-parallel meta-batch training.  Each task of a
  /// meta-batch runs on its own model replica with a thread-isolated autodiff
  /// graph; gradients reduce in fixed task order into double buffers, so the
  /// result is bit-identical for any thread count (see meta/parallel.h).
  /// 0 = resolve from the FEWNER_THREADS environment variable (default 1).
  int64_t num_threads = 0;
  bool verbose = false;           ///< log outer-loop losses

  /// Optional hook invoked after every `callback_every` outer iterations (and
  /// after the last one), e.g. for validation checks or live monitoring.
  /// Never invoked when callback_every == 0.
  int64_t callback_every = 0;
  std::function<void(int64_t iteration)> iteration_callback;
};

/// Invokes the configured callback when the iteration index calls for it.
inline void MaybeInvokeCallback(const TrainConfig& config, int64_t iteration) {
  if (config.callback_every <= 0 || !config.iteration_callback) return;
  if ((iteration + 1) % config.callback_every == 0 ||
      iteration + 1 == config.iterations) {
    config.iteration_callback(iteration);
  }
}

/// Applies the train-time query/support bounds to an episode in place.
inline void BoundTrainingEpisode(const TrainConfig& config, data::Episode* episode) {
  if (static_cast<int64_t>(episode->query.size()) > config.train_query_size) {
    episode->query.resize(static_cast<size_t>(config.train_query_size));
  }
  if (config.train_support_cap > 0 &&
      static_cast<int64_t>(episode->support.size()) > config.train_support_cap) {
    episode->support.resize(static_cast<size_t>(config.train_support_cap));
  }
}

// Token read-out shared by the metric baselines (ProtoNet, MatchingNet, SNAIL),
// which classify each token independently instead of decoding a CRF.

/// Tags of every token of `sentences`, in Backbone::Hidden's row order.
inline std::vector<int64_t> TokenTags(
    const std::vector<models::EncodedSentence>& sentences) {
  std::vector<int64_t> tags;
  for (const auto& sentence : sentences) {
    tags.insert(tags.end(), sentence.tags.begin(), sentence.tags.end());
  }
  return tags;
}

/// One-hot label matrix [T, num_classes] for `tags` (one tag per token).
inline tensor::Tensor OneHotLabels(const std::vector<int64_t>& tags,
                                   int64_t num_classes) {
  const auto total = static_cast<int64_t>(tags.size());
  std::vector<float> onehot(static_cast<size_t>(total * num_classes), 0.0f);
  for (int64_t t = 0; t < total; ++t) {
    onehot[static_cast<size_t>(t * num_classes + tags[static_cast<size_t>(t)])] = 1.0f;
  }
  return tensor::Tensor::FromData(tensor::Shape{total, num_classes}, std::move(onehot));
}

/// Per-token argmax of `scores` [T, C], split back into one tag sequence per
/// sentence by their lengths; ties go to the lowest class.
inline std::vector<std::vector<int64_t>> ArgmaxTags(
    const tensor::Tensor& scores,
    const std::vector<models::EncodedSentence>& sentences) {
  const int64_t num_classes = scores.shape().dim(1);
  const auto& values = scores.data();
  std::vector<std::vector<int64_t>> tags;
  tags.reserve(sentences.size());
  size_t row = 0;
  for (const auto& sentence : sentences) {
    std::vector<int64_t>& out = tags.emplace_back();
    for (int64_t t = 0; t < sentence.length(); ++t, ++row) {
      const float* v = values.data() + row * static_cast<size_t>(num_classes);
      int64_t best = 0;
      for (int64_t c = 1; c < num_classes; ++c) {
        if (v[c] > v[best]) best = c;
      }
      out.push_back(best);
    }
  }
  return tags;
}

/// A few-shot sequence-labeling method.
class FewShotMethod {
 public:
  virtual ~FewShotMethod() = default;

  /// Display name as it appears in the paper's tables.
  virtual std::string name() const = 0;

  /// Trains on tasks drawn from `sampler` (the source/training split),
  /// numerically encoded through `encoder`.
  virtual void Train(const data::EpisodeSampler& sampler,
                     const models::EpisodeEncoder& encoder,
                     const TrainConfig& config) = 0;

  /// Adapts to the episode's support set and predicts tag sequences for every
  /// query sentence.  Must leave the method's trained state unchanged, so
  /// evaluation episodes are independent.
  virtual std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) = 0;
};

}  // namespace fewner::meta
