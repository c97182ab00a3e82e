#include "meta/protonet.h"

#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Shape;
using tensor::Tensor;

ProtoNet::ProtoNet(const models::BackboneConfig& config, util::Rng* rng) {
  util::Rng init_rng = rng->Fork(0x9207ull);
  backbone_ = std::make_unique<models::Backbone>(WithoutConditioning(config), &init_rng);
}

Tensor ProtoNet::BuildPrototypes(const models::Backbone& net,
                                 const std::vector<models::EncodedSentence>& support,
                                 std::vector<bool>* class_present) {
  const int64_t num_classes = net.config().max_tags;
  Tensor all = net.Hidden(models::PackBatch(support));  // [T, D]
  const std::vector<int64_t> tags = TokenTags(support);
  const int64_t total = all.shape().dim(0);

  std::vector<int64_t> counts(static_cast<size_t>(num_classes), 0);
  for (int64_t tag : tags) ++counts[static_cast<size_t>(tag)];
  class_present->assign(static_cast<size_t>(num_classes), false);

  // Averaging matrix M [C, T]: row c has 1/count_c at the positions of class c
  // — a constant, so prototypes stay differentiable w.r.t. the encoder.
  std::vector<float> m(static_cast<size_t>(num_classes * total), 0.0f);
  for (int64_t t = 0; t < total; ++t) {
    const int64_t c = tags[static_cast<size_t>(t)];
    (*class_present)[static_cast<size_t>(c)] = true;
    m[static_cast<size_t>(c * total + t)] =
        1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
  }
  return tensor::MatMul(Tensor::FromData(Shape{num_classes, total}, std::move(m)),
                        all);  // [C, D]
}

Tensor ProtoNet::TokenLogits(const Tensor& queries, const Tensor& prototypes,
                             const std::vector<bool>& class_present) {
  const int64_t num_classes = prototypes.shape().dim(0);
  // -||q - p||^2 = -(||q||^2 - 2 q·p + ||p||^2)
  Tensor q_sq =
      tensor::SumAxis(tensor::Square(queries), 1, /*keepdim=*/true);  // [T, 1]
  Tensor p_sq = tensor::Reshape(
      tensor::SumAxis(tensor::Square(prototypes), 1, /*keepdim=*/false),
      Shape{1, num_classes});                                         // [1, C]
  Tensor cross = tensor::MatMulNT(queries, prototypes);               // [T, C]
  Tensor logits = tensor::Neg(
      tensor::Add(tensor::Sub(q_sq, tensor::MulScalar(cross, 2.0f)), p_sq));
  // Classes absent from the support set cannot be predicted.
  std::vector<float> mask(static_cast<size_t>(num_classes), 0.0f);
  for (int64_t c = 0; c < num_classes; ++c) {
    if (!class_present[static_cast<size_t>(c)]) mask[static_cast<size_t>(c)] = -1e7f;
  }
  return tensor::Add(logits, Tensor::FromData(Shape{num_classes}, std::move(mask)));
}

Tensor ProtoNet::EpisodeLoss(const models::Backbone& net,
                             const models::EncodedEpisode& episode) {
  std::vector<bool> class_present;
  Tensor prototypes = BuildPrototypes(net, episode.support, &class_present);
  const int64_t num_classes = net.config().max_tags;
  Tensor logp = tensor::LogSoftmaxLastDim(TokenLogits(
      net.Hidden(models::PackBatch(episode.query)), prototypes, class_present));

  // Select gold log-probs; skip tokens whose gold class has no prototype.
  const std::vector<int64_t> tags = TokenTags(episode.query);
  const auto total = static_cast<int64_t>(tags.size());
  std::vector<float> select(static_cast<size_t>(total * num_classes), 0.0f);
  int64_t used = 0;
  for (int64_t t = 0; t < total; ++t) {
    const int64_t gold = tags[static_cast<size_t>(t)];
    if (!class_present[static_cast<size_t>(gold)]) continue;
    select[static_cast<size_t>(t * num_classes + gold)] = 1.0f;
    ++used;
  }
  FEWNER_CHECK(used > 0, "episode with no usable query tokens");
  Tensor gold_sum = tensor::SumAll(tensor::Mul(
      logp, Tensor::FromData(Shape{total, num_classes}, std::move(select))));
  return tensor::MulScalar(tensor::Neg(gold_sum), 1.0f / static_cast<float>(used));
}

void ProtoNet::Train(const data::EpisodeSampler& sampler,
                     const models::EpisodeEncoder& encoder,
                     const TrainConfig& config) {
  nn::Adam optimizer(backbone_->Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  RunOuterLoop(
      config, backbone_.get(), &batch, name(), "loss",
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc =
            PrepareTrainingTask(sampler, encoder, config, episode_id, net);
        Tensor loss = EpisodeLoss(*net, enc);
        *grads = tensor::autodiff::Grad(loss, replica_params);
        return loss.item();
      },
      [&](int64_t, std::vector<Tensor> grads) {
        nn::ClipGradNorm(&grads, config.grad_clip);
        optimizer.Step(grads);
      });
}

std::vector<std::vector<int64_t>> ProtoNet::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  backbone_->SetTraining(false);
  if (episode.query.empty()) return {};
  std::vector<bool> class_present;
  Tensor prototypes = BuildPrototypes(*backbone_, episode.support, &class_present);
  return ArgmaxTags(TokenLogits(backbone_->Hidden(models::PackBatch(episode.query)),
                                prototypes, class_present),
                    episode.query);
}

}  // namespace fewner::meta
