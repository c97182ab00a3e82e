// Edge-case robustness tests across subsystems: degenerate shapes, minimal
// configurations, boundary conditions and failure paths that the main suites
// do not exercise.

#include <gtest/gtest.h>

#include <cmath>

#include "crf/linear_chain_crf.h"
#include "crf_sentence.h"
#include "data/episode_sampler.h"
#include "data/synthetic.h"
#include "meta/grad_accumulator.h"
#include "models/backbone.h"
#include "nn/optim.h"
#include "reference/backbone_reference.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "text/hash_embeddings.h"
#include "util/flags.h"
#include "util/status.h"

namespace fewner {
namespace {

using tensor::Shape;
using tensor::Tensor;
using crf_testing::SentenceNll;
using crf_testing::SentenceViterbi;

// ------------------------------------------------------------------ tensors

TEST(TensorEdgeTest, RankZeroArithmetic) {
  Tensor a = Tensor::Scalar(3.0f, true);
  Tensor b = Tensor::Scalar(4.0f);
  Tensor c = tensor::Mul(a, b);
  EXPECT_EQ(c.rank(), 0);
  EXPECT_FLOAT_EQ(c.item(), 12.0f);
  auto g = tensor::autodiff::Grad(c, {a});
  EXPECT_FLOAT_EQ(g[0].item(), 4.0f);
}

TEST(TensorEdgeTest, OneByOneMatMul) {
  Tensor a = Tensor::FromData(Shape{1, 1}, {2.0f}, true);
  Tensor b = Tensor::FromData(Shape{1, 1}, {5.0f});
  Tensor c = tensor::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.item(), 10.0f);
}

TEST(TensorEdgeTest, SliceFullRangeAndConcatSingle) {
  Tensor t = Tensor::FromData(Shape{2, 2}, {1, 2, 3, 4});
  Tensor full = tensor::Slice(t, 0, 0, 2);
  EXPECT_EQ(full.shape(), t.shape());
  Tensor single = tensor::Concat({t}, 0);
  EXPECT_EQ(single.node(), t.node());  // pass-through, no copy
}

TEST(TensorEdgeTest, ChainedBroadcasts) {
  Tensor scalar = Tensor::Scalar(2.0f, true);
  Tensor row = Tensor::FromData(Shape{3}, {1, 2, 3});
  Tensor grid = Tensor::Ones(Shape{4, 3});
  Tensor out = tensor::Mul(tensor::Add(grid, row), scalar);
  EXPECT_EQ(out.shape(), (Shape{4, 3}));
  auto g = tensor::autodiff::Grad(tensor::SumAll(out), {scalar});
  // d/ds sum((grid+row)*s) = sum(grid+row) = 12 + 4*6 = 36.
  EXPECT_FLOAT_EQ(g[0].item(), 36.0f);
}

TEST(TensorEdgeTest, UnfoldWindowEqualsLength) {
  Tensor t = Tensor::FromData(Shape{1, 3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor u = tensor::UnfoldTimeBatch(t, 3);
  EXPECT_EQ(u.shape(), (Shape{1, 1, 6}));
  EXPECT_FLOAT_EQ(u.at(5), 6.0f);
}

TEST(TensorEdgeTest, MaxAxisOnSingletonAxis) {
  Tensor t = Tensor::FromData(Shape{1, 3}, {5, 1, 9});
  Tensor m = tensor::MaxAxis(t, 0, /*keepdim=*/false);
  EXPECT_EQ(m.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(m.at(2), 9.0f);
}

TEST(TensorEdgeTest, SecondOrderThroughLogSumExp) {
  Tensor x = Tensor::FromData(Shape{1, 3}, {0.1f, -0.2f, 0.3f}, true);
  Tensor lse = tensor::SumAll(tensor::LogSumExpLastDim(x));
  auto g1 = tensor::autodiff::Grad(lse, {x}, /*create_graph=*/true);
  // Sum of softmax = 1, so grad sums to 1; second derivative of that sum is 0.
  float total = 0;
  for (float v : g1[0].data()) total += v;
  EXPECT_NEAR(total, 1.0f, 1e-5);
  auto g2 = tensor::autodiff::Grad(tensor::SumAll(g1[0]), {x});
  for (float v : g2[0].data()) EXPECT_NEAR(v, 0.0f, 1e-4);
}

// --------------------------------------------------------------------- CRF

TEST(CrfEdgeTest, SingleTagInventory) {
  crf::LinearChainCrf crf(1);
  Tensor emissions = Tensor::FromData(Shape{4, 1}, {1, 2, 3, 4});
  Tensor nll = SentenceNll(crf, emissions, {0, 0, 0, 0});
  EXPECT_NEAR(nll.item(), 0.0f, 1e-4);  // only one path exists
  EXPECT_EQ(SentenceViterbi(crf, emissions), (std::vector<int64_t>{0, 0, 0, 0}));
}

// ------------------------------------------------------------------- optim

TEST(OptimEdgeTest, ClipZeroGradientsIsNoOp) {
  std::vector<Tensor> grads = {Tensor::Zeros(Shape{3})};
  const float norm = nn::ClipGradNorm(&grads, 1.0f);
  EXPECT_FLOAT_EQ(norm, 0.0f);
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
}

TEST(OptimEdgeTest, GradAccumulatorSumsAndScales) {
  std::vector<Tensor> params = {Tensor::Zeros(Shape{2}, true)};
  meta::GradAccumulator accumulator(params);
  accumulator.Add({Tensor::FromData(Shape{2}, {1.0f, 2.0f})});
  accumulator.Add({Tensor::FromData(Shape{2}, {3.0f, 4.0f})});
  auto out = accumulator.Finish(0.5f);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0].at(0), 2.0f);
  EXPECT_FLOAT_EQ(out[0].at(1), 3.0f);
}

// ------------------------------------------------------------------- flags

TEST(FlagsEdgeTest, EqualsFormBooleansAndNegativeNumbers) {
  util::FlagParser parser;
  parser.AddBool("flag", true, "b");
  parser.AddInt("n", 0, "i");
  parser.AddDouble("x", 0.0, "d");
  const char* argv[] = {"p", "--flag=false", "--n", "-5", "--x=-0.25"};
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(parser.GetBool("flag"));
  EXPECT_EQ(parser.GetInt("n"), -5);
  EXPECT_DOUBLE_EQ(parser.GetDouble("x"), -0.25);
}

TEST(FlagsEdgeTest, MissingValueIsError) {
  util::FlagParser parser;
  parser.AddInt("n", 0, "i");
  const char* argv[] = {"p", "--n"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

// ------------------------------------------------------------------ status

namespace {
util::Status FailsInner() { return util::Status::NotFound("inner"); }
util::Status Propagates() {
  FEWNER_RETURN_IF_ERROR(FailsInner());
  return util::Status::OK();
}
}  // namespace

TEST(StatusEdgeTest, ReturnIfErrorPropagates) {
  util::Status status = Propagates();
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

// ----------------------------------------------------------------- sampler

TEST(SamplerEdgeTest, NWayEqualsAvailableTypes) {
  data::SyntheticSpec spec;
  spec.name = "edge";
  spec.genre = "newswire";
  spec.num_types = 5;
  spec.num_sentences = 400;
  spec.seed = 4;
  spec.type_pool_offset = 8200;
  data::Corpus corpus = data::GenerateCorpus(spec);
  data::EpisodeSampler sampler(&corpus, corpus.entity_types, 5, 1, 1, 9);
  data::Episode episode = sampler.Sample(0);
  EXPECT_EQ(episode.n_way(), 5);
  EXPECT_EQ(episode.query.size(), 1u);
}

// ---------------------------------------------------------------- backbone

TEST(BackboneEdgeTest, SingleTokenSentence) {
  text::Vocab words, chars;
  words.Add("hi");
  chars.Add("h");
  chars.Add("i");
  models::BackboneConfig config;
  config.word_vocab_size = words.size();
  config.char_vocab_size = chars.size();
  config.word_dim = 6;
  config.char_dim = 4;
  config.filters_per_width = 2;
  config.hidden_dim = 6;
  config.max_tags = 3;
  config.context_dim = 4;
  config.dropout = 0.0f;
  util::Rng rng(5);
  models::Backbone backbone(config, &rng);
  backbone.SetTraining(false);

  models::EncodedSentence sentence;
  sentence.word_ids = {2};
  sentence.char_ids = {{2, 3}};
  sentence.tags = {text::BeginTag(0)};
  auto valid = text::ValidTagMask(1, 3);
  Tensor loss =
      reference::SentenceLoss(backbone, sentence, backbone.ZeroContext(), valid);
  EXPECT_TRUE(std::isfinite(loss.item()));
  auto decoded =
      reference::Decode(backbone, sentence, backbone.ZeroContext(), valid);
  EXPECT_EQ(decoded.size(), 1u);
}

// ----------------------------------------------------------- hash embeddings

TEST(HashEmbeddingsEdgeTest, TinyDimension) {
  text::HashEmbeddings embeddings(1);
  auto v = embeddings.VectorFor("x");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NEAR(std::abs(v[0]), 1.0f, 1e-4);  // unit norm in 1-D
}

TEST(HashEmbeddingsEdgeTest, ShortWordsUseWholeWordAsPrefix) {
  text::HashEmbeddings embeddings(8);
  EXPECT_EQ(embeddings.VectorFor("ab"), embeddings.VectorFor("AB"));
}

}  // namespace
}  // namespace fewner
