// Tests for the extension features: CoNLL I/O, slot-filling corpus, BiLSTM
// encoder, CRF k-best + marginals, serialization of whole methods, and the
// Reptile / MatchingNet baselines.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "crf/linear_chain_crf.h"
#include "crf_sentence.h"
#include "data/conll.h"
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
using crf_testing::SentenceNll;
using crf_testing::SentenceViterbi;

// ----------------------------------------------------------------- CoNLL I/O

TEST(ConllTest, ParsesTokensAndSpans) {
  std::istringstream in(
      "Jordan B-PER\n"
      "visited O\n"
      "Atlantic B-LOC\n"
      "City I-LOC\n"
      ". O\n"
      "\n"
      "-DOCSTART- O\n"
      "\n"
      "NBA B-ORG\n"
      "star O\n");
  auto result = data::ReadConllStream(&in, "test");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const data::Corpus& corpus = result.value();
  ASSERT_EQ(corpus.sentences.size(), 2u);
  const auto& first = corpus.sentences[0];
  EXPECT_EQ(first.tokens.size(), 5u);
  ASSERT_EQ(first.entities.size(), 2u);
  EXPECT_EQ(first.entities[0].label, "PER");
  EXPECT_EQ(first.entities[1].start, 2);
  EXPECT_EQ(first.entities[1].end, 4);
  EXPECT_EQ(corpus.entity_types.size(), 3u);  // PER, LOC, ORG
}

TEST(ConllTest, DanglingInsideRecovers) {
  std::istringstream in("word I-GENE\nmore I-GENE\n");
  auto result = data::ReadConllStream(&in, "test");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().sentences[0].entities.size(), 1u);
  EXPECT_EQ(result.value().sentences[0].entities[0].end, 2);
}

TEST(ConllTest, TabSeparatedAndComments) {
  std::istringstream in("# comment\nword\tPOS\tB-X\n");
  auto result = data::ReadConllStream(&in, "test");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().sentences[0].entities[0].label, "X");
}

TEST(ConllTest, BadLabelIsError) {
  std::istringstream in("word Q-BAD\n");
  EXPECT_FALSE(data::ReadConllStream(&in, "test").ok());
}

TEST(ConllTest, EmptyInputIsError) {
  std::istringstream in("\n\n");
  EXPECT_FALSE(data::ReadConllStream(&in, "test").ok());
}

TEST(ConllTest, WriteReadRoundTrip) {
  data::SlotFillingSpec spec;
  spec.num_utterances = 25;
  data::Corpus corpus = data::GenerateSlotFillingCorpus(spec);
  std::ostringstream out;
  ASSERT_TRUE(data::WriteConllStream(corpus, &out).ok());
  std::istringstream in(out.str());
  auto parsed = data::ReadConllStream(&in, "roundtrip");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().sentences.size(), corpus.sentences.size());
  for (size_t i = 0; i < corpus.sentences.size(); ++i) {
    EXPECT_EQ(parsed.value().sentences[i].tokens, corpus.sentences[i].tokens);
    EXPECT_EQ(parsed.value().sentences[i].entities, corpus.sentences[i].entities);
  }
}

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

// ----------------------------------------------------- CRF k-best / marginals

TEST(CrfKBestTest, FirstPathMatchesViterbiAndOrderingHolds) {
  crf::LinearChainCrf crf(3);
  util::Rng rng(11);
  for (tensor::Tensor* p : crf.Parameters()) {
    for (float& v : *p->mutable_data()) v = static_cast<float>(rng.Gaussian(0, 0.5));
  }
  Tensor emissions = Tensor::Randn(Shape{4, 3}, &rng);
  auto paths = crf.ViterbiKBest(emissions, 5);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0].tags, SentenceViterbi(crf, emissions));
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i].score, paths[i - 1].score + 1e-5f);
    EXPECT_NE(paths[i].tags, paths[i - 1].tags);
  }
}

TEST(CrfKBestTest, ExhaustsSmallPathSpaces) {
  crf::LinearChainCrf crf(2);
  util::Rng rng(13);
  Tensor emissions = Tensor::Randn(Shape{2, 2}, &rng);
  auto paths = crf.ViterbiKBest(emissions, 100);
  EXPECT_EQ(paths.size(), 4u);  // 2^2 distinct paths
}

TEST(CrfMarginalsTest, RowsSumToOneAndAgreeWithEnumeration) {
  crf::LinearChainCrf crf(3);
  util::Rng rng(17);
  for (tensor::Tensor* p : crf.Parameters()) {
    for (float& v : *p->mutable_data()) v = static_cast<float>(rng.Gaussian(0, 0.5));
  }
  Tensor emissions = Tensor::Randn(Shape{3, 3}, &rng);
  auto marginals = crf.Marginals(emissions);
  ASSERT_EQ(marginals.size(), 3u);
  for (const auto& row : marginals) {
    double total = 0;
    for (double p : row) total += p;
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
  // Enumerated check: P(y_1 = 2) from all 27 paths' probabilities.
  double target = 0;
  std::vector<int64_t> path(3, 0);
  for (;;) {
    const double p = std::exp(-SentenceNll(crf, emissions, path).item());
    if (path[1] == 2) target += p;
    int pos = 2;
    while (pos >= 0) {
      if (++path[static_cast<size_t>(pos)] < 3) break;
      path[static_cast<size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  EXPECT_NEAR(marginals[1][2], target, 1e-3);
}

TEST(CrfMarginalsTest, MaskedTagsGetZeroMass) {
  crf::LinearChainCrf crf(3);
  util::Rng rng(19);
  Tensor emissions = Tensor::Randn(Shape{4, 3}, &rng);
  std::vector<bool> valid = {true, false, true};
  auto marginals = crf.Marginals(emissions, &valid);
  for (const auto& row : marginals) {
    EXPECT_EQ(row[1], 0.0);
    EXPECT_NEAR(row[0] + row[2], 1.0, 1e-4);
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
