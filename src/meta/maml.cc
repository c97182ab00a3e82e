#include "meta/maml.h"

#include "meta/parallel.h"
#include "tensor/autodiff.h"

namespace fewner::meta {

using tensor::Tensor;

Maml::Maml(const models::BackboneConfig& config, util::Rng* rng) {
  util::Rng init_rng = rng->Fork(0x3A31ull);
  backbone_ =
      std::make_unique<models::Backbone>(WithoutConditioning(config), &init_rng);
}

std::vector<Tensor> Maml::InnerAdaptOn(
    models::Backbone* net, const std::vector<models::EncodedSentence>& support,
    const std::vector<bool>& valid_tags, int64_t steps, float inner_lr,
    bool create_graph) {
  std::vector<Tensor*> slots = net->Parameters();
  std::vector<Tensor> current = nn::ParameterTensors(net);
  // Packed once; every inner step runs the batch-first forward.
  const models::EncodedBatch packed = models::PackBatch(support);
  for (int64_t k = 0; k < steps; ++k) {
    Tensor loss;
    {
      nn::ParameterPatch patch(slots, current);
      loss = net->BatchLoss(packed, Tensor(), valid_tags);
    }
    // Full-network inner steps on the paper's summed task loss are large;
    // InnerStep rescales by the global norm (detached factor, paper's clip of
    // 5.0) so a single step cannot blow up the whole backbone.
    current = InnerStep(current, tensor::autodiff::Grad(loss, current, create_graph),
                        inner_lr, create_graph);
  }
  return current;
}

void Maml::Train(const data::EpisodeSampler& sampler,
                 const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  test_inner_steps_ = config.inner_steps_test;
  inner_lr_ = config.inner_lr;
  auto query_loss = [&](nn::Module* model, const models::EncodedEpisode& enc) {
    auto* net = static_cast<models::Backbone*>(model);
    std::vector<Tensor> adapted =
        InnerAdaptOn(net, enc.support, enc.valid_tags, config.inner_steps_train,
                     config.inner_lr, /*create_graph=*/!config.first_order);
    Tensor loss;
    {
      nn::ParameterPatch patch(net->Parameters(), adapted);
      loss = net->BatchLoss(models::PackBatch(enc.query), Tensor(), enc.valid_tags);
    }
    // Eq. 3: meta-gradient w.r.t. the original parameters (the replica's own
    // leaves), flowing through the full-network inner updates; per-task
    // backward bounds peak memory.  In first-order mode the inner updates are
    // detached, so the FOMAML gradient is taken at the adapted parameters and
    // applied to the originals (identical layouts).
    if (!config.first_order) return TaskLoss{loss};
    return TaskLoss{loss, std::move(adapted)};
  };
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  RunOuterLoop(config, backbone_.get(), &batch, name(), "query loss",
               GradientTask(sampler, encoder, config, query_loss),
               AdamUpdate(config, backbone_.get(), /*decay_lr=*/true));
}

std::vector<std::vector<int64_t>> Maml::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  backbone_->SetTraining(false);
  std::vector<Tensor> adapted =
      InnerAdaptOn(backbone_.get(), episode.support, episode.valid_tags,
                   test_inner_steps_, inner_lr_, /*create_graph=*/false);
  std::vector<Tensor*> slots = backbone_->Parameters();
  nn::ParameterPatch patch(slots, adapted);
  if (episode.query.empty()) return {};
  return backbone_->DecodeBatch(models::PackBatch(episode.query), Tensor(),
                                episode.valid_tags);
}

}  // namespace fewner::meta
