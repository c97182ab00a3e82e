// Integration tests for the meta-learning methods on a tiny synthetic world:
// adaptation must reduce support loss, training must leave models functional,
// and every method must produce well-formed predictions on the same episodes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <type_traits>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "meta/fewner.h"
#include "meta/finetune.h"
#include "meta/grad_accumulator.h"
#include "meta/lm_tagger.h"
#include "meta/maml.h"
#include "meta/parallel.h"
#include "meta/matching_net.h"
#include "meta/protonet.h"
#include "meta/reptile.h"
#include "meta/snail.h"
#include "models/lm_encoder.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "text/bio.h"

namespace fewner::meta {
namespace {

using tensor::Tensor;

/// Tiny shared fixture: small corpus, small model, few iterations.
class MetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec;
    spec.name = "tiny";
    spec.genre = "newswire";
    spec.num_types = 8;
    spec.num_sentences = 260;
    spec.mentions_per_sentence = 2.0;
    spec.seed = 3;
    spec.type_pool_offset = 7500;
    corpus_ = data::GenerateCorpus(spec);

    text::VocabBuilder builder;
    for (const auto& sentence : corpus_.sentences) builder.AddSentence(sentence.tokens);
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();

    config_.word_vocab_size = words_.size();
    config_.char_vocab_size = chars_.size();
    config_.word_dim = 10;
    config_.char_dim = 6;
    config_.filters_per_width = 4;
    config_.hidden_dim = 10;
    config_.max_tags = text::NumTags(3);
    config_.context_dim = 8;
    config_.dropout = 0.1f;

    encoder_ = std::make_unique<models::EpisodeEncoder>(&words_, &chars_,
                                                        config_.max_tags);
    sampler_ = std::make_unique<data::EpisodeSampler>(
        &corpus_, corpus_.entity_types, 3, 1, 4, 17);

    train_config_.iterations = 3;
    train_config_.meta_batch = 2;
    train_config_.train_query_size = 2;
  }

  models::EncodedEpisode EncodeEpisode(uint64_t id) {
    data::Episode episode = sampler_->Sample(id);
    if (episode.query.size() > 2) episode.query.resize(2);
    return encoder_->Encode(episode);
  }

  void CheckPredictions(FewShotMethod* method) {
    models::EncodedEpisode episode = EncodeEpisode(100);
    auto predictions = method->AdaptAndPredict(episode);
    ASSERT_EQ(predictions.size(), episode.query.size());
    for (size_t q = 0; q < predictions.size(); ++q) {
      ASSERT_EQ(static_cast<int64_t>(predictions[q].size()),
                episode.query[q].length());
      for (int64_t tag : predictions[q]) {
        EXPECT_GE(tag, 0);
        EXPECT_LT(tag, config_.max_tags);
        EXPECT_TRUE(episode.valid_tags[static_cast<size_t>(tag)]);
      }
    }
    // Evaluation of well-formed predictions must yield a score in [0, 1].
    const double f1 = eval::EpisodeF1(episode, predictions);
    EXPECT_GE(f1, 0.0);
    EXPECT_LE(f1, 1.0);
  }

  /// Trains `method` briefly, then requires its tags for ragged queries of
  /// eight sentences, predicted in one call, to equal the tags of each
  /// sentence predicted alone against the same support set.
  void ExpectBatchCompositionInvariant(FewShotMethod* method) {
    method->Train(*sampler_, *encoder_, train_config_);
    data::EpisodeSampler sampler(&corpus_, corpus_.entity_types, 3, 1, 8, 17);
    for (uint64_t id = 100; id < 110; ++id) {
      models::EncodedEpisode episode = encoder_->Encode(sampler.Sample(id));
      ASSERT_GE(episode.query.size(), 5u);
      std::set<int64_t> lengths;
      for (const auto& sentence : episode.query) lengths.insert(sentence.length());
      ASSERT_GE(lengths.size(), 3u) << "query is not ragged, episode " << id;

      const auto batched = method->AdaptAndPredict(episode);
      ASSERT_EQ(batched.size(), episode.query.size());
      for (size_t q = 0; q < episode.query.size(); ++q) {
        models::EncodedEpisode single = episode;
        single.query = {episode.query[q]};
        const auto alone = method->AdaptAndPredict(single);
        ASSERT_EQ(alone.size(), 1u);
        EXPECT_EQ(batched[q], alone[0])
            << method->name() << " episode " << id << " query sentence " << q;
      }
    }
  }

  /// A small, untrained frozen LM of `kind` over the fixture's vocabularies.
  std::shared_ptr<models::PretrainedLmEncoder> SmallLm(models::LmKind kind,
                                                       util::Rng* rng) {
    models::LmConfig lm_config;
    lm_config.model_dim = 12;
    lm_config.num_layers = 1;
    lm_config.ffn_dim = 16;
    lm_config.gru_hidden = 8;
    lm_config.char_dim = 8;
    return std::make_shared<models::PretrainedLmEncoder>(kind, lm_config, &words_,
                                                         &chars_, rng);
  }

  /// θ after `iterations` outer iterations of a fixed-seed Train whose
  /// config asks for the meta learning rate to decay by `lr_decay` every two
  /// iterations' worth of tasks.
  template <typename Method>
  std::vector<std::vector<float>> ThetaAfter(int64_t iterations, float lr_decay) {
    util::Rng rng(1);
    Method method(config_, &rng);
    TrainConfig config = train_config_;
    config.iterations = iterations;
    config.lr_decay = lr_decay;
    config.lr_decay_every = 2 * config.meta_batch;
    method.Train(*sampler_, *encoder_, config);
    if constexpr (std::is_same_v<Method, Snail>) {
      return nn::SnapshotParameterValues(method.model());
    } else {
      return nn::SnapshotParameterValues(method.backbone());
    }
  }

  data::Corpus corpus_;
  text::Vocab words_, chars_;
  models::BackboneConfig config_;
  std::unique_ptr<models::EpisodeEncoder> encoder_;
  std::unique_ptr<data::EpisodeSampler> sampler_;
  TrainConfig train_config_;
};

TEST_F(MetaTest, FewnerInnerLoopReducesSupportLoss) {
  util::Rng rng(1);
  Fewner fewner(config_, &rng);
  fewner.backbone()->SetTraining(false);
  models::EncodedEpisode episode = EncodeEpisode(0);
  Tensor phi0 = fewner.backbone()->ZeroContext();
  const models::EncodedBatch support = models::PackBatch(episode.support);
  const float before =
      fewner.backbone()->BatchLoss(support, phi0, episode.valid_tags).item();
  Tensor phi =
      Fewner::AdaptContextOn(*fewner.backbone(), episode.support,
                             episode.valid_tags, 6, 0.1f, /*create_graph=*/false);
  const float after =
      fewner.backbone()->BatchLoss(support, phi, episode.valid_tags).item();
  EXPECT_LT(after, before);
}

TEST_F(MetaTest, FewnerAdaptedPhiIsFunctionOfTheta) {
  // With create_graph, φ_k must carry gradient back to θ (the second-order
  // path of Eq. 6).
  util::Rng rng(1);
  Fewner fewner(config_, &rng);
  fewner.backbone()->SetTraining(false);
  models::EncodedEpisode episode = EncodeEpisode(0);
  Tensor phi =
      Fewner::AdaptContextOn(*fewner.backbone(), episode.support,
                             episode.valid_tags, 2, 0.1f, /*create_graph=*/true);
  Tensor probe = tensor::SumAll(tensor::Square(phi));
  auto grads = tensor::autodiff::Grad(
      probe, nn::ParameterTensors(fewner.backbone()));
  double total = 0;
  for (const auto& g : grads) {
    for (float v : g.data()) total += std::abs(v);
  }
  EXPECT_GT(total, 1e-8);
}

TEST_F(MetaTest, FewnerTrainStepRunsAndPredicts) {
  util::Rng rng(1);
  Fewner fewner(config_, &rng);
  fewner.Train(*sampler_, *encoder_, train_config_);
  CheckPredictions(&fewner);
}

TEST_F(MetaTest, FewnerTrainingMovesTheta) {
  util::Rng rng(1);
  Fewner fewner(config_, &rng);
  auto before = nn::SnapshotParameterValues(fewner.backbone());
  fewner.Train(*sampler_, *encoder_, train_config_);
  auto after = nn::SnapshotParameterValues(fewner.backbone());
  double delta = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    for (size_t j = 0; j < before[i].size(); ++j) {
      delta += std::abs(before[i][j] - after[i][j]);
    }
  }
  EXPECT_GT(delta, 1e-4);
}

TEST_F(MetaTest, MamlInnerAdaptReducesSupportLossAndRestores) {
  util::Rng rng(1);
  Maml maml(config_, &rng);
  maml.backbone()->SetTraining(false);
  models::EncodedEpisode episode = EncodeEpisode(0);
  auto snapshot = nn::SnapshotParameterValues(maml.backbone());
  const models::EncodedBatch support = models::PackBatch(episode.support);
  const float before =
      maml.backbone()->BatchLoss(support, Tensor(), episode.valid_tags).item();
  auto adapted =
      Maml::InnerAdaptOn(maml.backbone(), episode.support, episode.valid_tags, 4,
                         0.1f, /*create_graph=*/false);
  float after = 0;
  {
    nn::ParameterPatch patch(maml.backbone()->Parameters(), adapted);
    after = maml.backbone()
                ->BatchLoss(support, Tensor(), episode.valid_tags)
                .item();
  }
  EXPECT_LT(after, before);
  // Patch destruction restored the original parameters.
  auto restored = nn::SnapshotParameterValues(maml.backbone());
  for (size_t i = 0; i < snapshot.size(); ++i) EXPECT_EQ(snapshot[i], restored[i]);
}

TEST_F(MetaTest, MamlTrainsAndPredicts) {
  util::Rng rng(1);
  Maml maml(config_, &rng);
  maml.Train(*sampler_, *encoder_, train_config_);
  CheckPredictions(&maml);
}

TEST_F(MetaTest, FineTuneTrainsAndPredictionRestoresParameters) {
  util::Rng rng(1);
  FineTune finetune(config_, &rng);
  finetune.Train(*sampler_, *encoder_, train_config_);
  auto before = nn::SnapshotParameterValues(finetune.backbone());
  CheckPredictions(&finetune);
  auto after = nn::SnapshotParameterValues(finetune.backbone());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

TEST_F(MetaTest, ProtoNetTrainsAndPredicts) {
  util::Rng rng(1);
  ProtoNet protonet(config_, &rng);
  protonet.Train(*sampler_, *encoder_, train_config_);
  CheckPredictions(&protonet);
}

TEST_F(MetaTest, SnailTrainsAndPredicts) {
  util::Rng rng(1);
  Snail snail(config_, &rng);
  snail.Train(*sampler_, *encoder_, train_config_);
  CheckPredictions(&snail);
}

TEST_F(MetaTest, ProtoNetTagsInvariantToQueryBatchComposition) {
  util::Rng rng(1);
  ProtoNet protonet(config_, &rng);
  ExpectBatchCompositionInvariant(&protonet);
}

TEST_F(MetaTest, MatchingNetTagsInvariantToQueryBatchComposition) {
  util::Rng rng(1);
  MatchingNet matching(config_, &rng);
  ExpectBatchCompositionInvariant(&matching);
}

TEST_F(MetaTest, SnailTagsInvariantToQueryBatchComposition) {
  util::Rng rng(1);
  Snail snail(config_, &rng);
  ExpectBatchCompositionInvariant(&snail);
}

TEST_F(MetaTest, LmTaggerTrainsAndPredicts) {
  for (models::LmKind kind : models::AllLmKinds()) {
    SCOPED_TRACE(models::LmKindName(kind));
    util::Rng rng(1);
    LmCrfTagger tagger(SmallLm(kind, &rng), config_.max_tags, &rng);
    EXPECT_EQ(tagger.name(), models::LmKindName(kind));
    tagger.Train(*sampler_, *encoder_, train_config_);
    CheckPredictions(&tagger);
  }
}

TEST_F(MetaTest, LmTaggerTagsInvariantToQueryBatchComposition) {
  for (models::LmKind kind :
       {models::LmKind::kGpt2, models::LmKind::kElmo, models::LmKind::kFlair}) {
    SCOPED_TRACE(models::LmKindName(kind));
    util::Rng rng(1);
    LmCrfTagger tagger(SmallLm(kind, &rng), config_.max_tags, &rng);
    ExpectBatchCompositionInvariant(&tagger);
  }
}

TEST_F(MetaTest, LmTaggerEmptyQueryPredictsNothing) {
  util::Rng rng(1);
  LmCrfTagger tagger(SmallLm(models::LmKind::kElmo, &rng), config_.max_tags, &rng);
  models::EncodedEpisode episode = EncodeEpisode(100);
  episode.query.clear();
  EXPECT_TRUE(tagger.AdaptAndPredict(episode).empty());
}

/// Finite-difference gradient of the support loss w.r.t. φ at φ = 0.
std::vector<float> PhiGradientByFiniteDifference(
    const models::Backbone& net,
    const std::vector<models::EncodedSentence>& support,
    const std::vector<bool>& valid_tags, double h) {
  const models::EncodedBatch packed = models::PackBatch(support);
  const int64_t dim = net.ZeroContext().shape().dim(0);
  std::vector<float> grad(static_cast<size_t>(dim));
  for (int64_t i = 0; i < dim; ++i) {
    std::vector<float> up(static_cast<size_t>(dim), 0.0f);
    std::vector<float> down(static_cast<size_t>(dim), 0.0f);
    up[static_cast<size_t>(i)] = static_cast<float>(h);
    down[static_cast<size_t>(i)] = static_cast<float>(-h);
    const float loss_up =
        net.BatchLoss(packed,
                      Tensor::FromData(tensor::Shape{dim}, std::move(up)),
                      valid_tags)
            .item();
    const float loss_down =
        net.BatchLoss(packed,
                      Tensor::FromData(tensor::Shape{dim}, std::move(down)),
                      valid_tags)
            .item();
    grad[static_cast<size_t>(i)] =
        static_cast<float>((loss_up - loss_down) / (2.0 * h));
  }
  return grad;
}

TEST_F(MetaTest, FewnerInnerStepMatchesFiniteDifferenceClipInactive) {
  // One clipped inner step from φ = 0 is φ₁ = −α · clip_scale · ∂L/∂φ.  On a
  // normal-size support set the gradient norm stays under the clip threshold
  // (clip_scale = 1), so φ₁ must equal −α·g for an independently
  // finite-differenced g.
  models::BackboneConfig smooth = config_;
  smooth.dropout = 0.0f;
  util::Rng rng(1);
  Fewner fewner(smooth, &rng);
  fewner.backbone()->SetTraining(false);

  // BatchLoss sums over sentences, so a full support set usually clips; scan
  // episodes for a single support sentence whose gradient norm sits safely
  // below the threshold to test the unclipped branch.
  std::vector<models::EncodedSentence> support;
  std::vector<bool> valid_tags;
  std::vector<float> g;
  double norm = 0.0;
  for (uint64_t id = 0; id < 20 && support.empty(); ++id) {
    models::EncodedEpisode episode = EncodeEpisode(id);
    for (const auto& sentence : episode.support) {
      std::vector<models::EncodedSentence> candidate = {sentence};
      std::vector<float> grad = PhiGradientByFiniteDifference(
          *fewner.backbone(), candidate, episode.valid_tags, 1e-2);
      double norm_sq = 0.0;
      for (float v : grad) norm_sq += static_cast<double>(v) * v;
      const double candidate_norm = std::sqrt(norm_sq);
      if (candidate_norm > 1e-3 && candidate_norm < 4.5) {
        support = std::move(candidate);
        valid_tags = episode.valid_tags;
        g = std::move(grad);
        norm = candidate_norm;
        break;
      }
    }
  }
  ASSERT_FALSE(support.empty())
      << "no support sentence with an unclipped gradient in 20 episodes";

  const float lr = 0.1f;
  Tensor phi = Fewner::AdaptContextOn(*fewner.backbone(), support, valid_tags,
                                      1, lr, /*create_graph=*/false);
  const auto& actual = phi.data();
  ASSERT_EQ(actual.size(), g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    const float expected = -lr * g[i];
    EXPECT_NEAR(actual[i], expected, 0.05 * std::abs(expected) + 1e-3)
        << "φ entry " << i << " (gradient norm " << norm << ")";
  }
}

TEST_F(MetaTest, FewnerInnerStepMatchesFiniteDifferenceClipActive) {
  // BatchLoss sums over sentences, so replicating the support set scales the
  // gradient past the clip threshold; the step must then be
  // φ₁ = −α · (5/‖g‖) · g.
  models::BackboneConfig smooth = config_;
  smooth.dropout = 0.0f;
  util::Rng rng(1);
  Fewner fewner(smooth, &rng);
  fewner.backbone()->SetTraining(false);
  models::EncodedEpisode episode = EncodeEpisode(0);

  std::vector<models::EncodedSentence> big_support;
  for (int copy = 0; copy < 25; ++copy) {
    big_support.insert(big_support.end(), episode.support.begin(),
                       episode.support.end());
  }
  const std::vector<float> g = PhiGradientByFiniteDifference(
      *fewner.backbone(), big_support, episode.valid_tags, 1e-2);
  double norm_sq = 0.0;
  for (float v : g) norm_sq += static_cast<double>(v) * v;
  const double norm = std::sqrt(norm_sq);
  ASSERT_GT(norm, 5.0) << "replication did not push the gradient past the clip";

  const float lr = 0.1f;
  const double clip_scale = 5.0 / norm;
  Tensor phi =
      Fewner::AdaptContextOn(*fewner.backbone(), big_support,
                             episode.valid_tags, 1, lr, /*create_graph=*/false);
  const auto& actual = phi.data();
  ASSERT_EQ(actual.size(), g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    const float expected = static_cast<float>(-lr * clip_scale * g[i]);
    EXPECT_NEAR(actual[i], expected, 0.05 * std::abs(expected) + 1e-3)
        << "φ entry " << i;
  }
}

// ------------------------------------------------------------ outer loop

TEST_F(MetaTest, TrainRejectsInvalidOuterLoopConfig) {
  util::Rng rng(1);
  Fewner fewner(config_, &rng);
  TrainConfig no_decay_period = train_config_;
  no_decay_period.lr_decay_every = 0;
  EXPECT_DEATH(fewner.Train(*sampler_, *encoder_, no_decay_period),
               "lr_decay_every must be positive");
  TrainConfig empty_batch = train_config_;
  empty_batch.meta_batch = 0;
  EXPECT_DEATH(fewner.Train(*sampler_, *encoder_, empty_batch),
               "meta_batch must be positive");
  TrainConfig negative_iterations = train_config_;
  negative_iterations.iterations = -1;
  EXPECT_DEATH(fewner.Train(*sampler_, *encoder_, negative_iterations),
               "iterations must not be negative");
}

TEST_F(MetaTest, FewnerAndMamlLrDecayTakesEffectFromTheThirdStep) {
  // The decay is due once the tasks of iteration 1 cross lr_decay_every; it
  // follows that iteration's Adam step, so only the third step sees it.
  EXPECT_EQ(ThetaAfter<Fewner>(2, 0.5f), ThetaAfter<Fewner>(2, 1.0f));
  EXPECT_NE(ThetaAfter<Fewner>(3, 0.5f), ThetaAfter<Fewner>(3, 1.0f));
  EXPECT_EQ(ThetaAfter<Maml>(2, 0.5f), ThetaAfter<Maml>(2, 1.0f));
  EXPECT_NE(ThetaAfter<Maml>(3, 0.5f), ThetaAfter<Maml>(3, 1.0f));
}

TEST_F(MetaTest, OtherMethodsIgnoreLrDecay) {
  EXPECT_EQ(ThetaAfter<FineTune>(3, 0.5f), ThetaAfter<FineTune>(3, 1.0f));
  EXPECT_EQ(ThetaAfter<ProtoNet>(3, 0.5f), ThetaAfter<ProtoNet>(3, 1.0f));
  EXPECT_EQ(ThetaAfter<MatchingNet>(3, 0.5f), ThetaAfter<MatchingNet>(3, 1.0f));
  EXPECT_EQ(ThetaAfter<Snail>(3, 0.5f), ThetaAfter<Snail>(3, 1.0f));
  EXPECT_EQ(ThetaAfter<Reptile>(3, 0.5f), ThetaAfter<Reptile>(3, 1.0f));
}

// ------------------------------------------------------------ inner step

TEST(InnerStepTest, FirstOrderLeavesHoldTheCreateGraphValuesBitwise) {
  using tensor::Shape;
  const float sub = std::numeric_limits<float>::denorm_min();
  const float small_sub = std::numeric_limits<float>::min() / 8;  // subnormal
  // Entries with ±0 and subnormals in both the parameters and the grads,
  // including products and differences that land on ±0 or stay subnormal.
  const std::vector<float> p_values = {0.0f,  -0.0f,      sub,   -small_sub,
                                       0.75f, -1.5e-3f,   3.0f,  -0.0f};
  const std::vector<float> g_values = {0.0f,  -0.0f, 0.0f,       small_sub,
                                       -2.0f, 1.25f, -small_sub, 0.5f};
  for (int64_t count : {1, 3}) {
    for (float g_scale : {0.5f, 8.0f}) {  // global norm below / above the clip
      SCOPED_TRACE(testing::Message() << count << " tensors, grad scale " << g_scale);
      std::vector<Tensor> params, grads;
      for (int64_t i = 0; i < count; ++i) {
        std::vector<float> p = p_values, g = g_values;
        for (float& v : p) v *= static_cast<float>(i + 1);
        for (float& v : g) v *= g_scale;
        params.push_back(Tensor::FromData(Shape{2, 4}, std::move(p), /*requires_grad=*/true));
        grads.push_back(Tensor::FromData(Shape{2, 4}, std::move(g)));
      }
      double norm_sq = 0.0;
      for (const Tensor& g : grads) {
        for (float v : g.data()) norm_sq += static_cast<double>(v) * v;
      }
      EXPECT_EQ(std::sqrt(norm_sq) > 5.0, g_scale > 1.0f);  // the clip engages
      const std::vector<Tensor> graph = InnerStep(params, grads, 0.1f, true);
      const std::vector<Tensor> leaves = InnerStep(params, grads, 0.1f, false);
      ASSERT_EQ(graph.size(), params.size());
      ASSERT_EQ(leaves.size(), params.size());
      for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_FALSE(graph[i].node()->inputs.empty());
        EXPECT_TRUE(leaves[i].node()->leaf);
        EXPECT_TRUE(leaves[i].node()->inputs.empty());
        EXPECT_TRUE(leaves[i].requires_grad());
        EXPECT_EQ(leaves[i].shape(), params[i].shape());
        ASSERT_EQ(leaves[i].numel(), graph[i].numel());
        EXPECT_EQ(std::memcmp(leaves[i].data().data(), graph[i].data().data(),
                              sizeof(float) * static_cast<size_t>(graph[i].numel())),
                  0)
            << "tensor " << i;
      }
    }
  }
}

// ------------------------------------------------------- GradAccumulator

TEST(GradAccumulatorTest, AveragesInDoublePrecision) {
  using tensor::Shape;
  std::vector<Tensor> params = {
      Tensor::FromData(Shape{2}, {0.0f, 0.0f}, /*requires_grad=*/true),
      Tensor::FromData(Shape{1, 2}, {0.0f, 0.0f}, /*requires_grad=*/true)};
  GradAccumulator accumulator(params);
  EXPECT_FALSE(accumulator.finished());
  accumulator.Add({Tensor::FromData(Shape{2}, {1.5f, -2.25f}),
                   Tensor::FromData(Shape{1, 2}, {4.0f, 0.5f})});
  accumulator.Add({Tensor::FromData(Shape{2}, {0.5f, 0.25f}),
                   Tensor::FromData(Shape{1, 2}, {-1.0f, 1.5f})});

  // The raw buffers hold the exact double sums.
  ASSERT_EQ(accumulator.buffers().size(), 2u);
  EXPECT_EQ(accumulator.buffers()[0], (std::vector<double>{2.0, -2.0}));
  EXPECT_EQ(accumulator.buffers()[1], (std::vector<double>{3.0, 2.0}));

  std::vector<Tensor> mean = accumulator.Finish(0.5);
  EXPECT_TRUE(accumulator.finished());
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_EQ(mean[0].shape(), params[0].shape());
  EXPECT_EQ(mean[1].shape(), params[1].shape());
  EXPECT_EQ(mean[0].data(), (std::vector<float>{1.0f, -1.0f}));
  EXPECT_EQ(mean[1].data(), (std::vector<float>{1.5f, 1.0f}));
}

TEST(GradAccumulatorTest, LayoutMismatchAborts) {
  using tensor::Shape;
  std::vector<Tensor> params = {
      Tensor::FromData(Shape{2}, {0.0f, 0.0f}, /*requires_grad=*/true)};
  GradAccumulator wrong_count(params);
  EXPECT_DEATH(wrong_count.Add({Tensor::FromData(Shape{2}, {1.0f, 2.0f}),
                                Tensor::FromData(Shape{1}, {3.0f})}),
               "layout mismatch");
  GradAccumulator wrong_size(params);
  EXPECT_DEATH(wrong_size.Add({Tensor::FromData(Shape{3}, {1.0f, 2.0f, 3.0f})}),
               "size mismatch");
}

TEST(GradAccumulatorTest, ReuseAfterFinishAborts) {
  using tensor::Shape;
  std::vector<Tensor> params = {
      Tensor::FromData(Shape{1}, {0.0f}, /*requires_grad=*/true)};
  GradAccumulator accumulator(params);
  accumulator.Add({Tensor::FromData(Shape{1}, {2.0f})});
  accumulator.Finish(1.0);
  EXPECT_DEATH(accumulator.Add({Tensor::FromData(Shape{1}, {1.0f})}),
               "after Finish");
  EXPECT_DEATH(accumulator.Finish(1.0), "called twice");
}

TEST_F(MetaTest, MethodsShareEvaluationEpisodes) {
  // Deterministic sampling means two methods see the exact same eval task.
  data::Episode a = sampler_->Sample(42);
  data::Episode b = sampler_->Sample(42);
  EXPECT_EQ(a.types, b.types);
  EXPECT_EQ(a.support, b.support);
}

}  // namespace
}  // namespace fewner::meta
