#include "meta/snail.h"

#include "meta/parallel.h"

#include <cmath>

#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::meta {

using tensor::Shape;
using tensor::Tensor;

Snail::Model::Model(const models::BackboneConfig& config, util::Rng* rng) {
  const models::BackboneConfig plain = WithoutConditioning(config);
  backbone = std::make_unique<models::Backbone>(plain, rng);
  RegisterModule("backbone", backbone.get());

  const int64_t feature_dim = 2 * plain.hidden_dim;
  const int64_t filters = plain.hidden_dim / 2;
  tc1 = std::make_unique<nn::DilatedCausalConv>(feature_dim, filters, 1, rng);
  tc2 = std::make_unique<nn::DilatedCausalConv>(tc1->output_dim(), filters, 2, rng);
  tc_dim = tc2->output_dim();
  attn_dim = plain.hidden_dim;
  key_proj = std::make_unique<nn::Linear>(tc_dim, attn_dim, rng, /*with_bias=*/false);
  query_proj =
      std::make_unique<nn::Linear>(tc_dim, attn_dim, rng, /*with_bias=*/false);
  classifier =
      std::make_unique<nn::Linear>(tc_dim + plain.max_tags, plain.max_tags, rng);
  RegisterModule("tc1", tc1.get());
  RegisterModule("tc2", tc2.get());
  RegisterModule("key_proj", key_proj.get());
  RegisterModule("query_proj", query_proj.get());
  RegisterModule("classifier", classifier.get());
}

Snail::Snail(const models::BackboneConfig& config, util::Rng* rng) {
  util::Rng init_rng = rng->Fork(0x54A1ull);
  model_ = std::make_unique<Model>(config, &init_rng);
}

Tensor Snail::Enrich(const Model& m,
                     const std::vector<models::EncodedSentence>& sentences) {
  const models::EncodedBatch batch = models::PackBatch(sentences);
  Tensor features = m.backbone->Hidden(batch);  // [T, 2H]
  return m.tc2->Forward(m.tc1->Forward(features, batch.lengths), batch.lengths);
}

void Snail::BuildSupport(const Model& m,
                         const std::vector<models::EncodedSentence>& support,
                         Tensor* keys, Tensor* labels) {
  *keys = m.key_proj->Forward(Enrich(m, support));  // [T, attn_dim]
  *labels = OneHotLabels(TokenTags(support), m.backbone->config().max_tags);
}

Tensor Snail::QueryLogProbs(const Model& m, const Tensor& enriched,
                            const Tensor& support_keys,
                            const Tensor& support_labels,
                            const std::vector<bool>& valid_tags) {
  Tensor queries = m.query_proj->Forward(enriched);            // [T, A]
  const float scale = 1.0f / std::sqrt(static_cast<float>(m.attn_dim));
  Tensor scores = tensor::MulScalar(
      tensor::MatMulNT(queries, support_keys), scale);  // [T, S], q·keysᵀ
  Tensor attention = tensor::SoftmaxLastDim(scores);
  // Attention-weighted label read-out, re-weighted by a learned classifier so
  // the model can counteract the O-class prior of the support tokens.
  Tensor votes = tensor::MatMul(attention, support_labels);  // [T, C]
  Tensor logits = m.classifier->Forward(tensor::Concat({enriched, votes}, 1));
  // Tags outside the episode's N ways are masked out of the softmax.
  const int64_t num_classes = m.backbone->config().max_tags;
  std::vector<float> mask(static_cast<size_t>(num_classes), 0.0f);
  for (int64_t c = 0; c < num_classes; ++c) {
    if (!valid_tags[static_cast<size_t>(c)]) mask[static_cast<size_t>(c)] = -1e7f;
  }
  logits = tensor::Add(logits, Tensor::FromData(Shape{num_classes}, std::move(mask)));
  return tensor::LogSoftmaxLastDim(logits);
}

Tensor Snail::EpisodeLoss(const Model& m, const models::EncodedEpisode& episode) {
  Tensor keys, labels;
  BuildSupport(m, episode.support, &keys, &labels);
  Tensor logp = QueryLogProbs(m, Enrich(m, episode.query), keys, labels,
                              episode.valid_tags);
  const std::vector<int64_t> tags = TokenTags(episode.query);
  Tensor gold = tensor::SumAll(
      tensor::Mul(logp, OneHotLabels(tags, m.backbone->config().max_tags)));
  return tensor::MulScalar(tensor::Neg(gold),
                           1.0f / static_cast<float>(tags.size()));
}

void Snail::Train(const data::EpisodeSampler& sampler,
                  const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  nn::Adam optimizer(model_->Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  Model* master = model_.get();
  ParallelMetaBatch batch(
      config.num_threads,
      [master]() -> std::unique_ptr<nn::Module> {
        // The init draws are discarded by the first sync; any seed works.
        util::Rng init_rng(0x5EED5EED5EED5EEDull);
        return std::make_unique<Model>(master->backbone->config(), &init_rng);
      },
      [master](nn::Module* replica) {
        auto* m = static_cast<Model*>(replica);
        m->CopyParametersFrom(master);
        m->SetTraining(master->training());
        m->backbone->set_dropout_base(master->backbone->dropout_base());
      });
  RunOuterLoop(
      config, master, &batch, name(), "loss",
      [&](uint64_t episode_id, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* m = static_cast<Model*>(model);
        models::EncodedEpisode enc = PrepareTrainingTask(
            sampler, encoder, config, episode_id, m->backbone.get());
        Tensor loss = EpisodeLoss(*m, enc);
        *grads = tensor::autodiff::Grad(loss, replica_params);
        return loss.item();
      },
      [&](int64_t, std::vector<Tensor> grads) {
        nn::ClipGradNorm(&grads, config.grad_clip);
        optimizer.Step(grads);
      });
}

std::vector<std::vector<int64_t>> Snail::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  model_->SetTraining(false);
  if (episode.query.empty()) return {};
  Tensor keys, labels;
  BuildSupport(*model_, episode.support, &keys, &labels);
  return ArgmaxTags(QueryLogProbs(*model_, Enrich(*model_, episode.query), keys,
                                  labels, episode.valid_tags),
                    episode.query);
}

}  // namespace fewner::meta
