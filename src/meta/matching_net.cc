#include "meta/matching_net.h"

#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Tensor;

MatchingNet::MatchingNet(const models::BackboneConfig& config, util::Rng* rng) {
  models::BackboneConfig plain = config;
  plain.conditioning = models::Conditioning::kNone;
  plain.context_dim = 0;
  util::Rng init_rng = rng->Fork(0x3A7Cull);
  backbone_ = std::make_unique<models::Backbone>(plain, &init_rng);
}

Tensor MatchingNet::NormalizedFeatures(const models::Backbone& net,
                                       const models::EncodedSentence& sentence) {
  Tensor features = net.Encode(sentence, Tensor());  // [L, D]
  Tensor norm = tensor::Sqrt(tensor::AddScalar(
      tensor::SumAxis(tensor::Square(features), 1, /*keepdim=*/true), 1e-8f));
  return tensor::Div(features, norm);
}

Tensor MatchingNet::QueryLogProbs(const models::Backbone& net,
                                  const models::EncodedSentence& sentence,
                                  const Tensor& support_features,
                                  const Tensor& support_labels) const {
  Tensor queries = NormalizedFeatures(net, sentence);  // [L, D]
  Tensor cosine = tensor::MatMulNT(queries, support_features);  // [L, S·L]
  Tensor attention = tensor::SoftmaxLastDim(tensor::MulScalar(cosine, temperature_));
  Tensor votes = tensor::MatMul(attention, support_labels);  // rows sum to 1
  return tensor::Log(tensor::AddScalar(votes, 1e-6f));
}

void MatchingNet::BuildSupport(const models::Backbone& net,
                               const std::vector<models::EncodedSentence>& support,
                               Tensor* features, Tensor* labels) {
  std::vector<Tensor> feature_blocks;
  std::vector<int64_t> tags;
  for (const auto& sentence : support) {
    feature_blocks.push_back(NormalizedFeatures(net, sentence));
    tags.insert(tags.end(), sentence.tags.begin(), sentence.tags.end());
  }
  *features = tensor::Concat(feature_blocks, 0);
  *labels = OneHotLabels(tags, net.config().max_tags);
}

Tensor MatchingNet::EpisodeLoss(const models::Backbone& net,
                                const models::EncodedEpisode& episode) const {
  const int64_t num_classes = net.config().max_tags;
  Tensor support_features, support_labels;
  BuildSupport(net, episode.support, &support_features, &support_labels);

  Tensor loss_total;
  int64_t tokens = 0;
  for (const auto& sentence : episode.query) {
    Tensor logp = QueryLogProbs(net, sentence, support_features, support_labels);
    Tensor gold =
        tensor::SumAll(tensor::Mul(logp, OneHotLabels(sentence.tags, num_classes)));
    Tensor loss = tensor::Neg(gold);
    loss_total = loss_total.defined() ? tensor::Add(loss_total, loss) : loss;
    tokens += sentence.length();
  }
  FEWNER_CHECK(loss_total.defined(), "MatchingNet episode without query tokens");
  return tensor::MulScalar(loss_total, 1.0f / static_cast<float>(tokens));
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
  Tensor support_features, support_labels;
  BuildSupport(*backbone_, episode.support, &support_features, &support_labels);
  std::vector<std::vector<int64_t>> predictions;
  predictions.reserve(episode.query.size());
  for (const auto& sentence : episode.query) {
    predictions.push_back(ArgmaxTags(
        QueryLogProbs(*backbone_, sentence, support_features, support_labels)));
  }
  return predictions;
}

}  // namespace fewner::meta
