// Tests for the extension features: slot-filling corpus, BiLSTM encoder, and
// the Reptile / MatchingNet baselines.

#include <gtest/gtest.h>

#include <cmath>

#include "data/slot_filling.h"
#include "meta/matching_net.h"
#include "meta/reptile.h"
#include "nn/lstm.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "text/bio.h"

namespace fewner {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ----------------------------------------------------------- slot filling

TEST(SlotFillingTest, GeneratesAnnotatedUtterances) {
  data::SlotFillingSpec spec;
  spec.num_utterances = 200;
  data::Corpus corpus = data::GenerateSlotFillingCorpus(spec);
  EXPECT_EQ(corpus.sentences.size(), 200u);
  EXPECT_EQ(corpus.entity_types.size(), 12u);
  int64_t with_slots = 0;
  for (const auto& sentence : corpus.sentences) {
    if (!sentence.entities.empty()) ++with_slots;
    for (const auto& entity : sentence.entities) {
      ASSERT_GE(entity.start, 0);
      ASSERT_LE(entity.end, static_cast<int64_t>(sentence.tokens.size()));
    }
  }
  EXPECT_EQ(with_slots, 200);  // every template has at least one slot
}

TEST(SlotFillingTest, Deterministic) {
  data::SlotFillingSpec spec;
  spec.num_utterances = 40;
  data::Corpus a = data::GenerateSlotFillingCorpus(spec);
  data::Corpus b = data::GenerateSlotFillingCorpus(spec);
  for (size_t i = 0; i < a.sentences.size(); ++i) {
    EXPECT_EQ(a.sentences[i].tokens, b.sentences[i].tokens);
  }
}

// ----------------------------------------------------------------- BiLSTM

/// One sentence [L, D] through the BiLSTM's batched forward as a B=1 batch.
Tensor ForwardOne(const nn::BiLstm& lstm, const Tensor& x) {
  const int64_t length = x.shape().dim(0);
  return lstm.ForwardBatch(
      tensor::Reshape(x, Shape{1, length, x.shape().dim(1)}), {length});
}

TEST(LstmTest, ShapesAndBidirectionality) {
  util::Rng rng(5);
  nn::BiLstm lstm(3, 4, &rng);
  Tensor x = Tensor::Randn(Shape{6, 3}, &rng);
  Tensor out = ForwardOne(lstm, x);
  EXPECT_EQ(out.shape(), (Shape{1, 6, 8}));
  // Perturbing the last token changes the first token's backward features only.
  std::vector<float> perturbed = x.data();
  perturbed[15] += 1.0f;
  Tensor out2 = ForwardOne(lstm, Tensor::FromData(Shape{6, 3}, perturbed));
  for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(out.at(j), out2.at(j));
  double delta = 0;
  for (int64_t j = 4; j < 8; ++j) delta += std::abs(out.at(j) - out2.at(j));
  EXPECT_GT(delta, 1e-6);
}

TEST(LstmTest, GradCheckThroughTime) {
  util::Rng rng(7);
  nn::BiLstm lstm(2, 2, &rng);
  Tensor x = Tensor::Randn(Shape{3, 2}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor loss = tensor::SumAll(tensor::Square(ForwardOne(lstm, x)));
  auto g = tensor::autodiff::Grad(loss, {x});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data(), minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    const float lp = tensor::SumAll(tensor::Square(ForwardOne(
                         lstm, Tensor::FromData(x.shape(), plus))))
                         .item();
    const float lm = tensor::SumAll(tensor::Square(ForwardOne(
                         lstm, Tensor::FromData(x.shape(), minus))))
                         .item();
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 5e-2) << "element " << i;
  }
}

// ----------------------------------------------------- extension baselines

class ExtensionMethodTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SlotFillingSpec spec;
    spec.num_utterances = 300;
    corpus_ = data::GenerateSlotFillingCorpus(spec);
    text::VocabBuilder builder;
    for (const auto& s : corpus_.sentences) builder.AddSentence(s.tokens);
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
    encoder_ = std::make_unique<models::EpisodeEncoder>(&words_, &chars_,
                                                        config_.max_tags);
    sampler_ = std::make_unique<data::EpisodeSampler>(
        &corpus_, corpus_.entity_types, 3, 1, 4, 23);
    train_.iterations = 3;
    train_.meta_batch = 2;
  }

  void CheckMethod(meta::FewShotMethod* method) {
    method->Train(*sampler_, *encoder_, train_);
    data::Episode episode = sampler_->Sample(50);
    if (episode.query.size() > 2) episode.query.resize(2);
    models::EncodedEpisode enc = encoder_->Encode(episode);
    auto predictions = method->AdaptAndPredict(enc);
    ASSERT_EQ(predictions.size(), enc.query.size());
    for (size_t q = 0; q < predictions.size(); ++q) {
      ASSERT_EQ(static_cast<int64_t>(predictions[q].size()),
                enc.query[q].length());
      for (int64_t tag : predictions[q]) {
        EXPECT_GE(tag, 0);
        EXPECT_LT(tag, config_.max_tags);
      }
    }
  }

  data::Corpus corpus_;
  text::Vocab words_, chars_;
  models::BackboneConfig config_;
  std::unique_ptr<models::EpisodeEncoder> encoder_;
  std::unique_ptr<data::EpisodeSampler> sampler_;
  meta::TrainConfig train_;
};

TEST_F(ExtensionMethodTest, ReptileTrainsAndPredicts) {
  util::Rng rng(1);
  meta::Reptile reptile(config_, &rng);
  EXPECT_EQ(reptile.name(), "Reptile");
  CheckMethod(&reptile);
}

TEST_F(ExtensionMethodTest, MatchingNetTrainsAndPredicts) {
  util::Rng rng(1);
  meta::MatchingNet matching(config_, &rng);
  EXPECT_EQ(matching.name(), "MatchingNet");
  CheckMethod(&matching);
}

TEST_F(ExtensionMethodTest, BilstmBackboneWorksEndToEnd) {
  config_.encoder = models::EncoderKind::kBiLstm;
  util::Rng rng(2);
  meta::Reptile reptile(config_, &rng);
  CheckMethod(&reptile);
}

}  // namespace
}  // namespace fewner
