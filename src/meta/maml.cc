#include "meta/maml.h"

#include <cmath>

#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

namespace {

/// Global-norm cap for inner-loop gradients (the paper's clip value).
constexpr float kInnerClip = 5.0f;

models::BackboneConfig WithoutConditioning(models::BackboneConfig config) {
  config.conditioning = models::Conditioning::kNone;
  config.context_dim = 0;
  return config;
}
}  // namespace

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
    std::vector<Tensor> grads = tensor::autodiff::Grad(loss, current, create_graph);
    // Full-network inner steps on the paper's summed task loss are large;
    // rescale by the global norm (detached factor, paper's clip of 5.0) so a
    // single step cannot blow up the whole backbone.
    double norm_sq = 0.0;
    for (const Tensor& g : grads) {
      for (float v : g.data()) norm_sq += static_cast<double>(v) * v;
    }
    const float norm = static_cast<float>(std::sqrt(norm_sq));
    const float clip_scale = norm > kInnerClip ? kInnerClip / norm : 1.0f;
    for (size_t i = 0; i < current.size(); ++i) {
      if (create_graph) {
        current[i] = tensor::Sub(
            current[i], tensor::MulScalar(grads[i], inner_lr * clip_scale));
      } else {
        // First-order test-time path: plain arithmetic into fresh leaves.
        std::vector<float> updated = current[i].data();
        const auto& g = grads[i].data();
        for (size_t j = 0; j < updated.size(); ++j) {
          updated[j] -= inner_lr * clip_scale * g[j];
        }
        Tensor leaf = Tensor::FromData(current[i].shape(), std::move(updated),
                                       /*requires_grad=*/true);
        current[i] = leaf;
      }
    }
  }
  return current;
}

void Maml::Train(const data::EpisodeSampler& sampler,
                 const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  test_inner_steps_ = config.inner_steps_test;
  inner_lr_ = config.inner_lr;
  nn::Adam optimizer(backbone_->Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  RunOuterLoop(
      config, backbone_.get(), &batch, name(), "query loss",
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc =
            PrepareTrainingTask(sampler, encoder, config, episode_id, net);
        std::vector<Tensor> adapted =
            InnerAdaptOn(net, enc.support, enc.valid_tags, config.inner_steps_train,
                         config.inner_lr, /*create_graph=*/!config.first_order);
        Tensor query_loss;
        {
          nn::ParameterPatch patch(net->Parameters(), adapted);
          query_loss = net->BatchLoss(models::PackBatch(enc.query), Tensor(),
                                      enc.valid_tags);
        }
        // Eq. 3: meta-gradient w.r.t. the original parameters (the replica's
        // own leaves), flowing through the full-network inner updates;
        // per-task backward bounds peak memory.  In first-order mode the inner
        // updates are detached, so the FOMAML gradient is taken at the adapted
        // parameters and applied to the originals (identical layouts).
        *grads = tensor::autodiff::Grad(
            query_loss, config.first_order ? adapted : replica_params);
        return query_loss.item();
      },
      [&](int64_t iteration, std::vector<Tensor> grads) {
        nn::ClipGradNorm(&grads, config.grad_clip);
        optimizer.Step(grads);
        if (LrDecayDue(config, iteration)) optimizer.DecayLr(config.lr_decay);
      });
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
