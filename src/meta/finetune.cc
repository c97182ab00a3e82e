#include "meta/finetune.h"

#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"

namespace fewner::meta {

using tensor::Tensor;

double SgdOnSupport(models::Backbone* net,
                    const std::vector<models::EncodedSentence>& support,
                    const std::vector<bool>& valid_tags, int64_t steps, float lr) {
  nn::Sgd sgd(net->Parameters(), lr);
  double last_loss = 0.0;
  // Packed once; every SGD step runs the batch-first forward.  The parameter
  // snapshot is likewise loop-invariant: Sgd::Step writes values in place, so
  // the handles keep aliasing the live leaves across steps.
  const models::EncodedBatch packed = models::PackBatch(support);
  const std::vector<Tensor> net_params = nn::ParameterTensors(net);
  for (int64_t k = 0; k < steps; ++k) {
    Tensor loss = net->BatchLoss(packed, Tensor(), valid_tags);
    std::vector<Tensor> grads = tensor::autodiff::Grad(loss, net_params);
    nn::ClipGradNorm(&grads, 5.0f);
    sgd.Step(grads);
    last_loss = loss.item();
  }
  return last_loss;
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
  nn::Adam optimizer(backbone_->Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  // Conventional supervised training: each training task's support set is one
  // mini-batch element; a meta-batch of support losses is averaged into one
  // update (no inner/outer split, no query usage).
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  RunOuterLoop(
      config, backbone_.get(), &batch, name(), "loss",
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc =
            PrepareTrainingTask(sampler, encoder, config, episode_id, net);
        Tensor loss = net->BatchLoss(models::PackBatch(enc.support), Tensor(),
                                     enc.valid_tags);
        *grads = tensor::autodiff::Grad(loss, replica_params);
        return loss.item();
      },
      [&](int64_t, std::vector<Tensor> grads) {
        nn::ClipGradNorm(&grads, config.grad_clip);
        optimizer.Step(grads);
      });
}

std::vector<std::vector<int64_t>> FineTune::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // Fine-tune the whole network on the support set, then restore afterwards so
  // evaluation episodes stay independent.
  return FineTuneAndDecode(backbone_.get(), episode, test_steps_, finetune_lr_);
}

}  // namespace fewner::meta
