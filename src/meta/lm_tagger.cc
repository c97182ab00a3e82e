#include "meta/lm_tagger.h"

#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fewner::meta {

using tensor::Tensor;

LmCrfTagger::Head::Head(int64_t feature_dim, int64_t max_tags, util::Rng* rng) {
  emission = std::make_unique<nn::Linear>(feature_dim, max_tags, rng);
  crf = std::make_unique<crf::LinearChainCrf>(max_tags);
  RegisterModule("emission", emission.get());
  RegisterModule("crf", crf.get());
}

LmCrfTagger::LmCrfTagger(std::shared_ptr<models::PretrainedLmEncoder> encoder,
                         int64_t max_tags, util::Rng* rng)
    : encoder_(std::move(encoder)),
      head_(encoder_->feature_dim(), max_tags, rng) {}

Tensor LmCrfTagger::Features(const models::EncodedSentence& sentence) {
  FEWNER_CHECK(sentence.source != nullptr, "LM features need the source sentence");
  auto it = feature_cache_.find(sentence.source);
  if (it != feature_cache_.end()) return it->second;
  // Detach(): the LM stays frozen; only the head sees gradients.
  Tensor features = encoder_->Encode(sentence).Detach();
  feature_cache_.emplace(sentence.source, features);
  return features;
}

Tensor LmCrfTagger::Emissions(const models::EncodedSentence& sentence) {
  Tensor emissions = head_.emission->Forward(Features(sentence));  // [L, Y]
  return tensor::Reshape(emissions, tensor::Shape{1, sentence.length(),
                                                  head_.crf->num_tags()});
}

Tensor LmCrfTagger::BatchLoss(const std::vector<models::EncodedSentence>& sentences,
                              const std::vector<bool>& valid_tags) {
  Tensor total;
  for (const auto& sentence : sentences) {
    // Each sentence is its own B=1 batch; the losses fold in sentence order.
    Tensor loss = head_.crf->NegLogLikelihoodBatch(
        Emissions(sentence), sentence.tags, {sentence.length()}, &valid_tags);
    total = total.defined() ? tensor::Add(total, loss) : loss;
  }
  return tensor::MulScalar(total, 1.0f / static_cast<float>(sentences.size()));
}

void LmCrfTagger::Train(const data::EpisodeSampler& sampler,
                        const models::EpisodeEncoder& encoder,
                        const TrainConfig& config) {
  test_steps_ = config.inner_steps_test;
  finetune_lr_ = config.inner_lr;
  nn::Adam optimizer(head_.Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  uint64_t episode_id = 0;
  const int64_t updates = config.iterations * config.meta_batch;
  for (int64_t step = 0; step < updates; ++step) {
    data::Episode episode = sampler.Sample(episode_id++);
    BoundTrainingEpisode(config, &episode);
    models::EncodedEpisode enc = encoder.Encode(episode);
    Tensor loss = BatchLoss(enc.support, enc.valid_tags);
    std::vector<Tensor> grads =
        tensor::autodiff::Grad(loss, nn::ParameterTensors(&head_));
    nn::ClipGradNorm(&grads, config.grad_clip);
    optimizer.Step(grads);
    if (config.verbose && step % 50 == 0) {
      FEWNER_LOG(INFO) << name() << " step " << step << " loss " << loss.item();
    }
  }
}

std::vector<std::vector<int64_t>> LmCrfTagger::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // Fine-tune only the CRF stack on the support set; restore afterwards.
  std::vector<std::vector<float>> snapshot = nn::SnapshotParameterValues(&head_);
  nn::Sgd sgd(head_.Parameters(), finetune_lr_);
  for (int64_t step = 0; step < test_steps_; ++step) {
    Tensor loss = BatchLoss(episode.support, episode.valid_tags);
    std::vector<Tensor> grads =
        tensor::autodiff::Grad(loss, nn::ParameterTensors(&head_));
    nn::ClipGradNorm(&grads, 5.0f);
    sgd.Step(grads);
  }
  std::vector<std::vector<int64_t>> predictions;
  predictions.reserve(episode.query.size());
  for (const auto& sentence : episode.query) {
    predictions.push_back(head_.crf->ViterbiBatch(
        Emissions(sentence).Detach(), {sentence.length()}, &episode.valid_tags)[0]);
  }
  nn::RestoreParameterValues(&head_, snapshot);
  return predictions;
}

}  // namespace fewner::meta
