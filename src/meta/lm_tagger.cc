#include "meta/lm_tagger.h"

#include <algorithm>

#include "meta/finetune.h"
#include "meta/parallel.h"
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

LmCrfTagger::PackedSet LmCrfTagger::Pack(
    const std::vector<models::EncodedSentence>& sentences) {
  PackedSet set{models::PackBatch(sentences), Tensor()};
  const int64_t dim = encoder_->feature_dim();
  std::vector<float> padded(static_cast<size_t>(set.batch.flat_size() * dim), 0.0f);
  for (size_t b = 0; b < sentences.size(); ++b) {
    FEWNER_CHECK(sentences[b].source != nullptr, "LM features need the source sentence");
    Tensor& features = feature_cache_[sentences[b].source];
    // Detach(): the LM stays frozen; only the head sees gradients.
    if (!features.defined()) features = encoder_->Encode(sentences[b]).Detach();
    std::copy(features.data().begin(), features.data().end(),
              padded.begin() + static_cast<std::ptrdiff_t>(b) * set.batch.max_len * dim);
  }
  set.features = Tensor::FromData(tensor::Shape{set.batch.flat_size(), dim},
                                  std::move(padded));
  return set;
}

Tensor LmCrfTagger::Emissions(const PackedSet& set) const {
  // Rows are independent under the ascending-k GEMM contract, so lane b's
  // rows equal the emission Linear on sentence b's features alone.
  return tensor::Reshape(head_.emission->Forward(set.features),
                         tensor::Shape{set.batch.batch, set.batch.max_len,
                                       head_.crf->num_tags()});
}

Tensor LmCrfTagger::BatchLoss(const PackedSet& set,
                              const std::vector<bool>& valid_tags) {
  // SumAllFloat folds the lane NLLs left to right in single precision: the
  // total equals adding per-sentence losses one at a time, bitwise.
  Tensor total = tensor::SumAllFloat(head_.crf->NegLogLikelihoodBatch(
      Emissions(set), set.batch.tags, set.batch.lengths, &valid_tags));
  return tensor::MulScalar(total, 1.0f / static_cast<float>(set.batch.batch));
}

void LmCrfTagger::Train(const data::EpisodeSampler& sampler,
                        const models::EpisodeEncoder& encoder,
                        const TrainConfig& config) {
  test_steps_ = config.inner_steps_test;
  finetune_lr_ = config.inner_lr;
  // One head update per training task, with the shared meta-update rule.
  const OuterUpdateFn update = AdamUpdate(config, &head_, /*decay_lr=*/false);
  uint64_t episode_id = 0;
  const int64_t updates = config.iterations * config.meta_batch;
  for (int64_t step = 0; step < updates; ++step) {
    data::Episode episode = sampler.Sample(episode_id++);
    BoundTrainingEpisode(config, &episode);
    models::EncodedEpisode enc = encoder.Encode(episode);
    Tensor loss = BatchLoss(Pack(enc.support), enc.valid_tags);
    update(step, tensor::autodiff::Grad(loss, nn::ParameterTensors(&head_)));
    if (config.verbose && step % 50 == 0) {
      FEWNER_LOG(INFO) << name() << " step " << step << " loss " << loss.item();
    }
  }
}

std::vector<std::vector<int64_t>> LmCrfTagger::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  if (episode.query.empty()) return {};
  // Fine-tune only the CRF stack on the support set; restore afterwards.
  std::vector<std::vector<float>> snapshot = nn::SnapshotParameterValues(&head_);
  const PackedSet support = Pack(episode.support);
  SgdSteps(&head_, test_steps_, finetune_lr_,
           [&] { return BatchLoss(support, episode.valid_tags); });
  const PackedSet query = Pack(episode.query);
  std::vector<std::vector<int64_t>> predictions = head_.crf->ViterbiBatch(
      Emissions(query).Detach(), query.batch.lengths, &episode.valid_tags);
  nn::RestoreParameterValues(&head_, snapshot);
  return predictions;
}

}  // namespace fewner::meta
