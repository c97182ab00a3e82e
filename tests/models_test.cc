// Tests for the models layer: episode encoding, the CNN-BiGRU-CRF backbone
// (shapes, conditioning modes, trainability), and the LM encoders.

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "models/lm_encoder.h"
#include "nn/optim.h"
#include "reference/backbone_reference.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "text/bio.h"

namespace fewner::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

data::Sentence MakeSentence() {
  data::Sentence sentence;
  sentence.tokens = {"Dr.", "Breampro", "visited", "Granville", "today"};
  sentence.entities = {{1, 2, "PER"}, {3, 4, "LOC"}};
  return sentence;
}

class EncodingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::VocabBuilder builder;
    builder.AddSentence(MakeSentence().tokens);
    builder.AddSentence({"unrelated", "words"});
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();
  }
  text::Vocab words_;
  text::Vocab chars_;
};

TEST_F(EncodingTest, EncodesWordsCharsAndTags) {
  EpisodeEncoder encoder(&words_, &chars_, text::NumTags(5));
  data::Sentence sentence = MakeSentence();
  EncodedSentence encoded = encoder.EncodeSentence(sentence, {"LOC", "PER"});
  EXPECT_EQ(encoded.length(), 5);
  EXPECT_EQ(encoded.word_ids.size(), 5u);
  EXPECT_EQ(encoded.char_ids[0].size(), 3u);  // "Dr."
  // PER is slot 1, LOC is slot 0.
  EXPECT_EQ(encoded.tags[1], text::BeginTag(1));
  EXPECT_EQ(encoded.tags[3], text::BeginTag(0));
  EXPECT_EQ(encoded.tags[0], text::kOutsideTag);
  EXPECT_EQ(encoded.source, &sentence);
}

TEST_F(EncodingTest, UnknownWordsMapToUnk) {
  EpisodeEncoder encoder(&words_, &chars_, text::NumTags(5));
  data::Sentence sentence;
  sentence.tokens = {"Zyzzyva"};
  EncodedSentence encoded = encoder.EncodeSentence(sentence, {});
  EXPECT_EQ(encoded.word_ids[0], text::kUnkId);
  // Characters present in the vocab still resolve (e.g. 'v' from "visited").
  EXPECT_NE(encoded.char_ids[0][4], text::kUnkId);
}

class BackboneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::VocabBuilder builder;
    builder.AddSentence(MakeSentence().tokens);
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();
    config_.word_vocab_size = words_.size();
    config_.char_vocab_size = chars_.size();
    config_.word_dim = 8;
    config_.char_dim = 6;
    config_.filters_per_width = 3;
    config_.hidden_dim = 8;
    config_.max_tags = text::NumTags(5);
    config_.context_dim = 6;
    config_.dropout = 0.0f;
    encoder_ = std::make_unique<EpisodeEncoder>(&words_, &chars_, config_.max_tags);
    encoded_ = encoder_->EncodeSentence(MakeSentence(), {"PER", "LOC"});
    valid_ = text::ValidTagMask(5, config_.max_tags);
  }

  text::Vocab words_, chars_;
  BackboneConfig config_;
  std::unique_ptr<EpisodeEncoder> encoder_;
  EncodedSentence encoded_;
  std::vector<bool> valid_;
};

TEST_F(BackboneTest, EmissionShapes) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  Tensor phi = backbone.ZeroContext();
  Tensor emissions = reference::Emissions(backbone, encoded_, phi);
  EXPECT_EQ(emissions.shape(), (Shape{5, config_.max_tags}));
}

TEST_F(BackboneTest, ConditioningModesAffectInputDim) {
  util::Rng rng(1);
  config_.conditioning = Conditioning::kFilm;
  Backbone film(config_, &rng);
  config_.conditioning = Conditioning::kConcat;
  Backbone concat(config_, &rng);
  EXPECT_EQ(concat.token_input_dim(), film.token_input_dim() + config_.context_dim);
  config_.conditioning = Conditioning::kNone;
  config_.context_dim = 0;
  Backbone none(config_, &rng);
  EXPECT_FALSE(none.ZeroContext().defined());
  Tensor emissions = reference::Emissions(none, encoded_, Tensor());
  EXPECT_EQ(emissions.shape(), (Shape{5, config_.max_tags}));
}

TEST_F(BackboneTest, ContextChangesEmissionsUnderFilm) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  backbone.SetTraining(false);
  Tensor e0 =
      reference::Emissions(backbone, encoded_, Tensor::Zeros(Shape{6}, true));
  Tensor e1 =
      reference::Emissions(backbone, encoded_, Tensor::Ones(Shape{6}, true));
  double delta = 0;
  for (int64_t i = 0; i < e0.numel(); ++i) delta += std::abs(e0.at(i) - e1.at(i));
  EXPECT_GT(delta, 1e-4);
}

TEST_F(BackboneTest, GradFlowsToContextAndTheta) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  Tensor phi = backbone.ZeroContext();
  Tensor loss = reference::SentenceLoss(backbone, encoded_, phi, valid_);
  EXPECT_GE(loss.item(), -1e-3);
  auto phi_grads = tensor::autodiff::Grad(loss, {phi});
  double norm = 0;
  for (float v : phi_grads[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 1e-8);
  auto theta_grads =
      tensor::autodiff::Grad(loss, nn::ParameterTensors(&backbone));
  EXPECT_EQ(theta_grads.size(), backbone.Parameters().size());
}

TEST_F(BackboneTest, NoCharCnnAblation) {
  util::Rng rng(1);
  config_.use_char_cnn = false;
  Backbone backbone(config_, &rng);
  EXPECT_EQ(backbone.token_input_dim(), config_.word_dim);
  Tensor emissions =
      reference::Emissions(backbone, encoded_, backbone.ZeroContext());
  EXPECT_EQ(emissions.shape(), (Shape{5, config_.max_tags}));
}

TEST_F(BackboneTest, DecodeRespectsValidMask) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  backbone.SetTraining(false);
  std::vector<bool> narrow = text::ValidTagMask(2, config_.max_tags);
  auto tags =
      reference::Decode(backbone, encoded_, backbone.ZeroContext(), narrow);
  EXPECT_EQ(tags.size(), 5u);
  for (int64_t tag : tags) EXPECT_LT(tag, text::NumTags(2));
}

TEST_F(BackboneTest, TrainingReducesLossOnFixedSentence) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  backbone.SetTraining(false);  // keep dropout off for determinism
  Tensor phi = backbone.ZeroContext();
  const float initial =
      reference::SentenceLoss(backbone, encoded_, phi, valid_).item();
  nn::Adam adam(backbone.Parameters(), 0.02f);
  for (int step = 0; step < 25; ++step) {
    Tensor loss = reference::SentenceLoss(backbone, encoded_,
                                          backbone.ZeroContext(), valid_);
    adam.Step(tensor::autodiff::Grad(loss, nn::ParameterTensors(&backbone)));
  }
  const float final_loss = reference::SentenceLoss(
      backbone, encoded_, backbone.ZeroContext(), valid_).item();
  EXPECT_LT(final_loss, initial * 0.5f);
}

TEST_F(BackboneTest, PretrainedVectorsAreLoaded) {
  util::Rng rng(1);
  std::vector<std::vector<float>> table(
      static_cast<size_t>(words_.size()),
      std::vector<float>(static_cast<size_t>(config_.word_dim), 0.25f));
  config_.pretrained_word_vectors = &table;
  Backbone backbone(config_, &rng);
  EXPECT_FLOAT_EQ(backbone.word_embedding()->Parameters()[0]->at(0), 0.25f);
}

class LmEncoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::VocabBuilder builder;
    corpus_ = data::GenerateUnlabeledText(40, 5);
    for (const auto& tokens : corpus_) builder.AddSentence(tokens);
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();
    encoder_ = std::make_unique<EpisodeEncoder>(&words_, &chars_, 3);
    for (const auto& tokens : corpus_) {
      data::Sentence sentence;
      sentence.tokens = tokens;
      sentences_.push_back(sentence);
    }
    for (const auto& sentence : sentences_) {
      encoded_.push_back(encoder_->EncodeSentence(sentence, {}));
    }
  }

  LmConfig SmallLmConfig() {
    LmConfig config;
    config.model_dim = 12;
    config.num_layers = 1;
    config.ffn_dim = 16;
    config.gru_hidden = 8;
    config.char_dim = 8;
    return config;
  }

  std::vector<std::vector<std::string>> corpus_;
  std::vector<data::Sentence> sentences_;
  std::vector<EncodedSentence> encoded_;
  text::Vocab words_, chars_;
  std::unique_ptr<EpisodeEncoder> encoder_;
};

TEST_F(LmEncoderTest, AllKindsEncodeWithDeclaredDims) {
  for (LmKind kind : AllLmKinds()) {
    util::Rng rng(3);
    PretrainedLmEncoder lm(kind, SmallLmConfig(), &words_, &chars_, &rng);
    Tensor features = lm.Encode(encoded_[0]);
    EXPECT_EQ(features.shape().dim(0), encoded_[0].length())
        << LmKindName(kind);
    EXPECT_EQ(features.shape().dim(1), lm.feature_dim()) << LmKindName(kind);
  }
}

TEST_F(LmEncoderTest, LmLossIsFiniteAndPositive) {
  for (LmKind kind : AllLmKinds()) {
    util::Rng rng(3);
    PretrainedLmEncoder lm(kind, SmallLmConfig(), &words_, &chars_, &rng);
    const float loss = lm.LmLoss(encoded_[0]).item();
    EXPECT_TRUE(std::isfinite(loss)) << LmKindName(kind);
    EXPECT_GT(loss, 0.0f) << LmKindName(kind);
  }
}

TEST_F(LmEncoderTest, PretrainingReducesLmLoss) {
  // GPT2-style encoder: average LM loss over a fixed probe set must drop.
  util::Rng rng(7);
  PretrainedLmEncoder lm(LmKind::kGpt2, SmallLmConfig(), &words_, &chars_, &rng);
  auto probe_loss = [&]() {
    double total = 0;
    for (int i = 0; i < 5; ++i) total += lm.LmLoss(encoded_[static_cast<size_t>(i)]).item();
    return total / 5;
  };
  const double before = probe_loss();
  util::Rng pretrain_rng(11);
  lm.Pretrain(encoded_, /*steps=*/60, /*lr=*/5e-3f, &pretrain_rng);
  EXPECT_LT(probe_loss(), before);
}

TEST_F(LmEncoderTest, NamesMatchPaper) {
  EXPECT_EQ(LmKindName(LmKind::kGpt2), "GPT2");
  EXPECT_EQ(LmKindName(LmKind::kFlair), "Flair");
  EXPECT_EQ(LmKindName(LmKind::kElmo), "ELMo");
  EXPECT_EQ(LmKindName(LmKind::kBert), "BERT");
  EXPECT_EQ(LmKindName(LmKind::kXlnet), "XLNet");
  EXPECT_EQ(AllLmKinds().size(), 5u);
}

TEST_F(LmEncoderTest, GptFeaturesAreCausal) {
  util::Rng rng(9);
  PretrainedLmEncoder lm(LmKind::kGpt2, SmallLmConfig(), &words_, &chars_, &rng);
  EncodedSentence a = encoded_[0];
  EncodedSentence b = a;
  ASSERT_GE(b.word_ids.size(), 3u);
  b.word_ids.back() = (b.word_ids.back() + 1) % words_.size();
  Tensor fa = lm.Encode(a);
  Tensor fb = lm.Encode(b);
  for (int64_t j = 0; j < fa.shape().dim(1); ++j) {
    EXPECT_FLOAT_EQ(fa.at(j), fb.at(j)) << "feature " << j;
  }
}

TEST_F(LmEncoderTest, BertFeaturesAreBidirectional) {
  util::Rng rng(9);
  PretrainedLmEncoder lm(LmKind::kBert, SmallLmConfig(), &words_, &chars_, &rng);
  EncodedSentence a = encoded_[0];
  EncodedSentence b = a;
  b.word_ids.back() = (b.word_ids.back() + 1) % words_.size();
  Tensor fa = lm.Encode(a);
  Tensor fb = lm.Encode(b);
  double delta = 0;
  for (int64_t j = 0; j < fa.shape().dim(1); ++j) delta += std::abs(fa.at(j) - fb.at(j));
  EXPECT_GT(delta, 1e-7);
}

}  // namespace
}  // namespace fewner::models
