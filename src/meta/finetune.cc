#include "meta/finetune.h"

#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"

namespace fewner::meta {

using tensor::Tensor;

double SgdSteps(nn::Module* module, int64_t steps, float lr,
                const std::function<Tensor()>& loss) {
  nn::Sgd sgd(module->Parameters(), lr);
  // Loop-invariant: Sgd::Step writes values in place, so the handles keep
  // aliasing the live leaves across steps.
  const std::vector<Tensor> params = nn::ParameterTensors(module);
  double last_loss = 0.0;
  for (int64_t k = 0; k < steps; ++k) {
    Tensor value = loss();
    std::vector<Tensor> grads = tensor::autodiff::Grad(value, params);
    nn::ClipGradNorm(&grads, 5.0f);
    sgd.Step(grads);
    last_loss = value.item();
  }
  return last_loss;
}

double SgdOnSupport(models::Backbone* net,
                    const std::vector<models::EncodedSentence>& support,
                    const std::vector<bool>& valid_tags, int64_t steps, float lr) {
  // Packed once; every SGD step runs the batch-first forward.
  const models::EncodedBatch packed = models::PackBatch(support);
  return SgdSteps(net, steps, lr,
                  [&] { return net->BatchLoss(packed, Tensor(), valid_tags); });
}

std::vector<std::vector<int64_t>> FineTuneAndDecode(
    models::Backbone* net, const models::EncodedEpisode& episode, int64_t steps,
    float lr) {
  net->SetTraining(false);
  std::vector<std::vector<float>> snapshot = nn::SnapshotParameterValues(net);
  SgdOnSupport(net, episode.support, episode.valid_tags, steps, lr);
  std::vector<std::vector<int64_t>> predictions;
  if (!episode.query.empty()) {
    predictions =
        net->DecodeBatch(models::PackBatch(episode.query), Tensor(), episode.valid_tags);
  }
  nn::RestoreParameterValues(net, snapshot);
  return predictions;
}

FineTune::FineTune(const models::BackboneConfig& config, util::Rng* rng) {
  util::Rng init_rng = rng->Fork(0xF17Eull);
  backbone_ = std::make_unique<models::Backbone>(WithoutConditioning(config), &init_rng);
}

void FineTune::Train(const data::EpisodeSampler& sampler,
                     const models::EpisodeEncoder& encoder,
                     const TrainConfig& config) {
  test_steps_ = config.inner_steps_test;
  finetune_lr_ = config.inner_lr;
  // Conventional supervised training: each training task's support set is one
  // mini-batch element; a meta-batch of support losses is averaged into one
  // update (no inner/outer split, no query usage).
  auto support_loss = [](nn::Module* model, const models::EncodedEpisode& enc) {
    auto* net = static_cast<models::Backbone*>(model);
    return TaskLoss{
        net->BatchLoss(models::PackBatch(enc.support), Tensor(), enc.valid_tags)};
  };
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  RunOuterLoop(config, backbone_.get(), &batch, name(), "loss",
               GradientTask(sampler, encoder, config, support_loss),
               AdamUpdate(config, backbone_.get(), /*decay_lr=*/false));
}

std::vector<std::vector<int64_t>> FineTune::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // Fine-tune the whole network on the support set, then restore afterwards so
  // evaluation episodes stay independent.
  return FineTuneAndDecode(backbone_.get(), episode, test_steps_, finetune_lr_);
}

}  // namespace fewner::meta
