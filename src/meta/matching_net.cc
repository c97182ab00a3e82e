#include "meta/matching_net.h"

#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

MatchingNet::MatchingNet(const models::BackboneConfig& config, util::Rng* rng) {
  util::Rng init_rng = rng->Fork(0x3A7Cull);
  backbone_ = std::make_unique<models::Backbone>(WithoutConditioning(config), &init_rng);
}

Tensor MatchingNet::NormalizedFeatures(
    const models::Backbone& net,
    const std::vector<models::EncodedSentence>& sentences) {
  Tensor features = net.Hidden(models::PackBatch(sentences));  // [T, D]
  Tensor norm = tensor::Sqrt(tensor::AddScalar(
      tensor::SumAxis(tensor::Square(features), 1, /*keepdim=*/true), 1e-8f));
  return tensor::Div(features, norm);
}

Tensor MatchingNet::QueryLogProbs(const Tensor& queries,
                                  const Tensor& support_features,
                                  const Tensor& support_labels) const {
  Tensor cosine = tensor::MatMulNT(queries, support_features);  // [T, S]
  Tensor attention = tensor::SoftmaxLastDim(tensor::MulScalar(cosine, temperature_));
  Tensor votes = tensor::MatMul(attention, support_labels);  // rows sum to 1
  return tensor::Log(tensor::AddScalar(votes, 1e-6f));
}

void MatchingNet::BuildSupport(const models::Backbone& net,
                               const std::vector<models::EncodedSentence>& support,
                               Tensor* features, Tensor* labels) {
  *features = NormalizedFeatures(net, support);
  *labels = OneHotLabels(TokenTags(support), net.config().max_tags);
}

Tensor MatchingNet::EpisodeLoss(const models::Backbone& net,
                                const models::EncodedEpisode& episode) const {
  Tensor support_features, support_labels;
  BuildSupport(net, episode.support, &support_features, &support_labels);
  Tensor logp = QueryLogProbs(NormalizedFeatures(net, episode.query),
                              support_features, support_labels);
  const std::vector<int64_t> tags = TokenTags(episode.query);
  Tensor gold = tensor::SumAll(
      tensor::Mul(logp, OneHotLabels(tags, net.config().max_tags)));
  return tensor::MulScalar(tensor::Neg(gold),
                           1.0f / static_cast<float>(tags.size()));
}

void MatchingNet::Train(const data::EpisodeSampler& sampler,
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

std::vector<std::vector<int64_t>> MatchingNet::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  backbone_->SetTraining(false);
  if (episode.query.empty()) return {};
  Tensor support_features, support_labels;
  BuildSupport(*backbone_, episode.support, &support_features, &support_labels);
  return ArgmaxTags(QueryLogProbs(NormalizedFeatures(*backbone_, episode.query),
                                  support_features, support_labels),
                    episode.query);
}

}  // namespace fewner::meta
