#include "meta/reptile.h"

#include "meta/finetune.h"
#include "meta/parallel.h"

namespace fewner::meta {

using tensor::Tensor;

Reptile::Reptile(const models::BackboneConfig& config, util::Rng* rng) {
  models::BackboneConfig plain = config;
  plain.conditioning = models::Conditioning::kNone;
  plain.context_dim = 0;
  util::Rng init_rng = rng->Fork(0x4E97ull);
  backbone_ = std::make_unique<models::Backbone>(plain, &init_rng);
}

void Reptile::Train(const data::EpisodeSampler& sampler,
                    const models::EpisodeEncoder& encoder,
                    const TrainConfig& config) {
  test_steps_ = config.inner_steps_test;
  inner_lr_ = config.inner_lr;
  // ε: the meta step toward adapted weights.  Reuses meta_lr scaled up since
  // Reptile's update is a convex interpolation, not an Adam-preconditioned one.
  const float epsilon = config.meta_lr * 25.0f;
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  const std::vector<Tensor> params = nn::ParameterTensors(backbone_.get());
  RunOuterLoop(
      config, backbone_.get(), &batch, name(), "support loss",
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc =
            PrepareTrainingTask(sampler, encoder, config, episode_id, net);
        const double loss = SgdOnSupport(net, enc.support, enc.valid_tags,
                                         config.inner_steps_train, config.inner_lr);
        // The task's contribution is its parameter delta θ'_task − θ, reduced
        // like a (pseudo-)gradient.  The inner SGD mutated the replica's
        // leaves in place, so `replica_params` now reads the adapted values
        // while `params` still holds the master's θ.
        const std::vector<Tensor>& adapted = replica_params;
        grads->reserve(adapted.size());
        for (size_t i = 0; i < adapted.size(); ++i) {
          const auto& a = adapted[i].data();
          const auto& b = params[i].data();
          std::vector<float> delta(a.size());
          for (size_t j = 0; j < a.size(); ++j) delta[j] = a[j] - b[j];
          grads->push_back(Tensor::FromData(adapted[i].shape(), std::move(delta)));
        }
        return loss;
      },
      // Batched Reptile step: θ ← θ + ε · mean_task(θ'_task − θ).
      [&](int64_t, std::vector<Tensor> deltas) {
        std::vector<Tensor*> slots = backbone_->Parameters();
        for (size_t i = 0; i < slots.size(); ++i) {
          std::vector<float>* values = slots[i]->mutable_data();
          const auto& d = deltas[i].data();
          for (size_t j = 0; j < values->size(); ++j) {
            (*values)[j] += epsilon * d[j];
          }
        }
      });
}

std::vector<std::vector<int64_t>> Reptile::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  return FineTuneAndDecode(backbone_.get(), episode, test_steps_, inner_lr_);
}

}  // namespace fewner::meta
