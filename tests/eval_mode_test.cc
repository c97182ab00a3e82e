// Differential suite for the graph-free inference fast path (tensor/eval_mode.h).
//
// The contract under test: for identical inputs, every op in ops.h produces
// BITWISE-identical values (0 ULP — compared with memcmp, not a tolerance)
// under EvalMode and in graph mode, across randomized shapes including
// broadcasts, keepdim variants, and single-element edge cases.  On top of the
// per-op checks, a whole-model test verifies that AdaptedTagger emits exactly
// the tag sequences graph-mode decoding emits, over 100 sampled episodes.
// Arena behavior (node recycling, escape pinning) is covered here too.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "meta/adapted_tagger.h"
#include "meta/fewner.h"
#include "reference/backbone_reference.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/rng.h"

namespace fewner::tensor {
namespace {

/// Asserts two tensors are bitwise-identical: same shape, 0 ULP everywhere.
void ExpectBitwise(const Tensor& graph, const Tensor& eval, const std::string& what) {
  ASSERT_TRUE(graph.defined() && eval.defined()) << what;
  ASSERT_EQ(graph.shape(), eval.shape()) << what;
  const auto& gv = graph.data();
  const auto& ev = eval.data();
  ASSERT_EQ(gv.size(), ev.size()) << what;
  if (!gv.empty()) {
    EXPECT_EQ(std::memcmp(gv.data(), ev.data(), gv.size() * sizeof(float)), 0)
        << what << ": eval-mode values diverge from graph mode";
  }
}

/// Runs `op` once in graph mode and once under EvalMode and compares bitwise.
/// Also asserts both halves of the sealing contract: the eval result carries
/// no autodiff state, and the graph result records its input edges and
/// requires grad, with a backward set, exactly when an input requires grad.
void CheckOp(const std::string& what, const std::function<Tensor()>& op) {
  Tensor graph_out = op();
  Tensor eval_out;
  {
    EvalMode eval;
    eval_out = op();
  }
  ExpectBitwise(graph_out, eval_out, what);
  // Identity cases (SumTo/BroadcastTo on a matching shape, ...) return the
  // input tensor itself — a leaf here — which may legitimately carry
  // requires_grad.  Anything the op layer *created* under EvalMode must be
  // free of autodiff state.
  if (!eval_out.node()->leaf) {
    EXPECT_FALSE(eval_out.requires_grad()) << what;
    EXPECT_TRUE(eval_out.node()->inputs.empty()) << what;
    EXPECT_FALSE(static_cast<bool>(eval_out.node()->backward)) << what;
  }
  if (!graph_out.node()->leaf) {
    const std::vector<Tensor>& inputs = graph_out.node()->inputs;
    EXPECT_FALSE(inputs.empty()) << what << ": graph mode recorded no input edges";
    bool any_input_requires_grad = false;
    for (const Tensor& in : inputs) {
      any_input_requires_grad = any_input_requires_grad || in.requires_grad();
    }
    EXPECT_EQ(graph_out.requires_grad(), any_input_requires_grad) << what;
    EXPECT_EQ(static_cast<bool>(graph_out.node()->backward), any_input_requires_grad)
        << what;
  }
}

Tensor RandTensor(Shape shape, util::Rng* rng, bool requires_grad = true) {
  return Tensor::Randn(std::move(shape), rng, 1.0f, requires_grad);
}

class EvalModeOpTest : public ::testing::Test {
 protected:
  util::Rng rng_{0xE7A1};
  /// Random dim in [1, 9]; small enough to keep broadcast paths cheap, large
  /// enough to cross the matmul kernel's column tail.
  int64_t Dim() { return 1 + static_cast<int64_t>(rng_.UniformInt(9)); }
};

TEST_F(EvalModeOpTest, ElementwiseBinarySameShape) {
  for (int rep = 0; rep < 20; ++rep) {
    Shape s = rep == 0 ? Shape{} : Shape{Dim(), Dim()};  // include rank-0
    Tensor a = RandTensor(s, &rng_);
    Tensor b = RandTensor(s, &rng_);
    CheckOp("Add", [&] { return Add(a, b); });
    CheckOp("Sub", [&] { return Sub(a, b); });
    CheckOp("Mul", [&] { return Mul(a, b); });
    CheckOp("Div", [&] { return Div(a, b); });
  }
}

TEST_F(EvalModeOpTest, ElementwiseBinaryBroadcast) {
  for (int rep = 0; rep < 20; ++rep) {
    const int64_t m = Dim(), n = Dim();
    // The three broadcast layouts the codebase uses: trailing vector,
    // leading-1 row, column-vs-matrix.
    std::vector<std::pair<Shape, Shape>> cases = {
        {Shape{m, n}, Shape{n}},
        {Shape{1, n}, Shape{n}},
        {Shape{m, 1}, Shape{m, n}},
        {Shape{m, n}, Shape{}},
    };
    for (auto& [sa, sb] : cases) {
      Tensor a = RandTensor(sa, &rng_);
      Tensor b = RandTensor(sb, &rng_);
      CheckOp("Add/bcast", [&] { return Add(a, b); });
      CheckOp("Sub/bcast", [&] { return Sub(a, b); });
      CheckOp("Mul/bcast", [&] { return Mul(a, b); });
      CheckOp("Div/bcast", [&] { return Div(a, b); });
    }
  }
}

TEST_F(EvalModeOpTest, ElementwiseUnaryAndScalarForms) {
  for (int rep = 0; rep < 20; ++rep) {
    Shape s = rep == 0 ? Shape{1} : Shape{Dim(), Dim()};
    Tensor t = RandTensor(s, &rng_);
    CheckOp("Neg", [&] { return Neg(t); });
    CheckOp("Sigmoid", [&] { return Sigmoid(t); });
    CheckOp("Tanh", [&] { return Tanh(t); });
    CheckOp("Relu", [&] { return Relu(t); });
    CheckOp("Exp", [&] { return Exp(t); });
    CheckOp("Square", [&] { return Square(t); });
    CheckOp("AddScalar", [&] { return AddScalar(t, 0.37f); });
    CheckOp("MulScalar", [&] { return MulScalar(t, -1.21f); });
    // Log/Sqrt need positive inputs.
    Tensor pos = AddScalar(Square(t), 0.1f).Detach();
    CheckOp("Log", [&] { return Log(pos); });
    CheckOp("Sqrt", [&] { return Sqrt(pos); });
  }
}

TEST_F(EvalModeOpTest, ShapeManipulation) {
  for (int rep = 0; rep < 20; ++rep) {
    const int64_t m = Dim(), n = Dim();
    Tensor t = RandTensor(Shape{m, n}, &rng_);
    CheckOp("Reshape", [&] { return Reshape(t, Shape{n * m}); });
    CheckOp("Reshape/rank3", [&] { return Reshape(t, Shape{m, n, 1}); });
    CheckOp("Transpose", [&] { return Transpose(t); });
    CheckOp("BroadcastTo", [&] {
      return BroadcastTo(Reshape(t, Shape{m, 1, n}), Shape{m, 3, n});
    });
    CheckOp("SumTo", [&] { return SumTo(t, Shape{1, n}); });
    CheckOp("SumTo/scalar", [&] { return SumTo(t, Shape{}); });

    Tensor u = RandTensor(Shape{m, n}, &rng_);
    Tensor v = RandTensor(Shape{1, n}, &rng_);
    CheckOp("Concat/axis0", [&] { return Concat({t, u, v}, 0); });
    Tensor w = RandTensor(Shape{m, 2}, &rng_);
    CheckOp("Concat/axis1", [&] { return Concat({t, w}, 1); });
    const int64_t start = static_cast<int64_t>(rng_.UniformInt(
        static_cast<uint64_t>(n)));
    const int64_t len = 1 + static_cast<int64_t>(
                                rng_.UniformInt(static_cast<uint64_t>(n - start)));
    CheckOp("Slice", [&] { return Slice(t, 1, start, len); });
    CheckOp("Slice/empty", [&] { return Slice(t, 0, 0, 0); });  // zero-length
  }
}

TEST_F(EvalModeOpTest, Reductions) {
  for (int rep = 0; rep < 20; ++rep) {
    const int64_t m = Dim(), n = Dim();
    Tensor t = RandTensor(Shape{m, n}, &rng_);
    CheckOp("SumAll", [&] { return SumAll(t); });
    for (int64_t axis = 0; axis < 2; ++axis) {
      CheckOp("SumAxis/keep", [&] { return SumAxis(t, axis, /*keepdim=*/true); });
      CheckOp("SumAxis/drop", [&] { return SumAxis(t, axis, /*keepdim=*/false); });
      CheckOp("MaxAxis/keep", [&] { return MaxAxis(t, axis, /*keepdim=*/true); });
      CheckOp("MaxAxis/drop", [&] { return MaxAxis(t, axis, /*keepdim=*/false); });
    }
  }
}

TEST_F(EvalModeOpTest, MatMulAndGatherScatter) {
  for (int rep = 0; rep < 20; ++rep) {
    const int64_t m = Dim(), k = Dim(), n = Dim();
    Tensor a = RandTensor(Shape{m, k}, &rng_);
    Tensor b = RandTensor(Shape{k, n}, &rng_);
    CheckOp("MatMul", [&] { return MatMul(a, b); });
    Tensor bt = RandTensor(Shape{n, k}, &rng_);
    Tensor at = RandTensor(Shape{k, m}, &rng_);
    CheckOp("MatMulNT", [&] { return MatMulNT(a, bt); });
    CheckOp("MatMulTN", [&] { return MatMulTN(at, b); });
    // A constant operand: the output still requires grad through the other
    // one; with both constant, the graph output carries no backward.
    Tensor fixed_b = RandTensor(Shape{k, n}, &rng_, /*requires_grad=*/false);
    Tensor fixed_at = RandTensor(Shape{k, m}, &rng_, /*requires_grad=*/false);
    CheckOp("MatMul/const-b", [&] { return MatMul(a, fixed_b); });
    CheckOp("MatMulTN/const-a", [&] { return MatMulTN(fixed_at, b); });
    CheckOp("MatMulTN/const", [&] { return MatMulTN(fixed_at, fixed_b); });

    std::vector<int64_t> idx;
    for (int64_t i = 0; i < m + 1; ++i) {
      idx.push_back(static_cast<int64_t>(rng_.UniformInt(static_cast<uint64_t>(m))));
    }
    CheckOp("IndexSelectRows", [&] { return IndexSelectRows(a, idx); });
    Tensor src = RandTensor(Shape{static_cast<int64_t>(idx.size()), k}, &rng_);
    CheckOp("ScatterAddRows", [&] { return ScatterAddRows(src, idx, m); });

    const int64_t window = 1 + static_cast<int64_t>(
                                   rng_.UniformInt(static_cast<uint64_t>(m)));
    Tensor lane = Reshape(a, Shape{1, m, k});
    CheckOp("UnfoldTimeBatch", [&] { return UnfoldTimeBatch(lane, window); });
    Tensor folded_src = RandTensor(Shape{1, m, window * k}, &rng_);
    CheckOp("FoldTimeBatch", [&] { return FoldTimeBatch(folded_src, window); });
  }
}

TEST_F(EvalModeOpTest, Composites) {
  for (int rep = 0; rep < 20; ++rep) {
    Tensor t = RandTensor(Shape{Dim(), Dim()}, &rng_);
    CheckOp("LogSumExpLastDim", [&] { return LogSumExpLastDim(t); });
    CheckOp("LogSoftmaxLastDim", [&] { return LogSoftmaxLastDim(t); });
    CheckOp("SoftmaxLastDim", [&] { return SoftmaxLastDim(t); });
  }
}

TEST(EvalModeTest, GuardNestsAndRestores) {
  EXPECT_FALSE(EvalMode::active());
  {
    EvalMode outer;
    EXPECT_TRUE(EvalMode::active());
    {
      EvalMode inner;
      EXPECT_TRUE(EvalMode::active());
    }
    EXPECT_TRUE(EvalMode::active());  // inner exit must not disable outer
  }
  EXPECT_FALSE(EvalMode::active());
}

TEST(EvalModeTest, ArenaRecyclesNodesAcrossIterations) {
  WorkspaceArena& arena = WorkspaceArena::ThreadLocal();
  arena.Clear();
  util::Rng rng(4);
  Tensor a = Tensor::Randn(Shape{8, 8}, &rng);
  Tensor b = Tensor::Randn(Shape{8, 8}, &rng);
  {
    EvalMode eval;
    for (int iter = 0; iter < 50; ++iter) {
      Tensor c = Tanh(Add(MatMul(a, b), b));
      ASSERT_EQ(c.shape(), (Shape{8, 8}));
    }
  }
  // 3 ops per iteration; after the first iteration primes the pool, every
  // later op must reuse a node rather than allocate.
  EXPECT_LE(arena.pool_size(), 8u);
  EXPECT_GE(arena.reuse_count(), 140u);
  arena.Clear();
  EXPECT_EQ(arena.pool_size(), 0u);
}

TEST(EvalModeTest, EscapedTensorsKeepTheirValues) {
  WorkspaceArena& arena = WorkspaceArena::ThreadLocal();
  arena.Clear();
  util::Rng rng(5);
  Tensor a = Tensor::Randn(Shape{4}, &rng);
  Tensor escaped;
  Tensor escaped_view;  // the only handle to the arena node it views
  std::vector<float> expected;
  std::vector<float> view_expected;
  {
    EvalMode eval;
    escaped = MulScalar(a, 2.0f);
    escaped_view = Reshape(Sigmoid(a), Shape{2, 2});
    expected = escaped.data();
    view_expected = escaped_view.data();
    // Churn the arena hard, 1,000 ops: if an escaped node, or the node the
    // view reads, were recycled, its buffer would be overwritten.
    for (int i = 0; i < 500; ++i) Sigmoid(MulScalar(a, static_cast<float>(i)));
  }
  EXPECT_EQ(escaped.data(), expected);
  // Another thread reads the view bitwise-unchanged.
  std::vector<float> seen;
  std::thread reader([&] { seen = escaped_view.data(); });
  reader.join();
  ASSERT_EQ(seen.size(), view_expected.size());
  EXPECT_EQ(std::memcmp(seen.data(), view_expected.data(), seen.size() * sizeof(float)), 0);
  arena.Clear();
  EXPECT_EQ(escaped.data(), expected);  // pinned node survives Clear too
  EXPECT_EQ(escaped_view.data(), view_expected);
}

TEST(EvalModeTest, GraphModeUnaffectedAfterEvalScope) {
  util::Rng rng(6);
  Tensor x = Tensor::Randn(Shape{3}, &rng, 1.0f, /*requires_grad=*/true);
  {
    EvalMode eval;
    Tanh(x);
  }
  // After the scope ends, autodiff must work exactly as before.
  Tensor loss = SumAll(Square(x));
  auto g = autodiff::Grad(loss, {x});
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(g[0].at(i), 2.0f * x.at(i));
  }
}

/// Whole-model differential: AdaptedTagger (eval path) against graph-mode
/// per-sentence decoding with the same adapted context, over 100 sampled
/// episodes.
TEST(EvalModeModelTest, AdaptedTaggerMatchesGraphModeOn100Episodes) {
  data::SyntheticSpec spec;
  spec.name = "evalparity";
  spec.genre = "newswire";
  spec.num_types = 8;
  spec.num_sentences = 260;
  spec.mentions_per_sentence = 2.0;
  spec.seed = 11;
  data::Corpus corpus = data::GenerateCorpus(spec);

  text::VocabBuilder builder;
  for (const auto& sentence : corpus.sentences) builder.AddSentence(sentence.tokens);
  text::Vocab words = builder.BuildWordVocab();
  text::Vocab chars = builder.BuildCharVocab();

  models::BackboneConfig config;
  config.word_vocab_size = words.size();
  config.char_vocab_size = chars.size();
  config.word_dim = 10;
  config.char_dim = 6;
  config.filters_per_width = 4;
  config.hidden_dim = 10;
  config.max_tags = text::NumTags(3);
  config.context_dim = 8;
  config.dropout = 0.1f;

  models::EpisodeEncoder encoder(&words, &chars, config.max_tags);
  data::EpisodeSampler sampler(&corpus, corpus.entity_types, 3, 1, 2, 23);

  util::Rng rng(301);
  meta::Fewner fewner(config, &rng);
  fewner.backbone()->SetTraining(false);

  for (uint64_t id = 0; id < 100; ++id) {
    models::EncodedEpisode episode = encoder.Encode(sampler.Sample(id));
    // Snapshot adapts φ once (2 steps keeps 100 episodes fast).
    meta::AdaptedTagger tagger(fewner.backbone(), episode.support,
                               episode.valid_tags, /*inner_steps=*/2,
                               /*inner_lr=*/0.1f);
    for (const auto& sentence : episode.query) {
      std::vector<int64_t> graph_tags = reference::Decode(
          *fewner.backbone(), sentence, tagger.phi(), episode.valid_tags);
      std::vector<int64_t> eval_tags = tagger.Tag(sentence);
      ASSERT_EQ(eval_tags, graph_tags) << "episode " << id;
    }
  }
}

/// The emissions feeding Viterbi must themselves be bitwise-identical across
/// modes — a stronger statement than matching argmax paths.
TEST(EvalModeModelTest, EmissionsBitwiseIdenticalAcrossModes) {
  data::SyntheticSpec spec;
  spec.name = "evalemit";
  spec.genre = "newswire";
  spec.num_types = 6;
  spec.num_sentences = 80;
  spec.mentions_per_sentence = 2.0;
  spec.seed = 13;
  data::Corpus corpus = data::GenerateCorpus(spec);

  text::VocabBuilder builder;
  for (const auto& sentence : corpus.sentences) builder.AddSentence(sentence.tokens);
  text::Vocab words = builder.BuildWordVocab();
  text::Vocab chars = builder.BuildCharVocab();

  models::BackboneConfig config;
  config.word_vocab_size = words.size();
  config.char_vocab_size = chars.size();
  config.word_dim = 10;
  config.char_dim = 6;
  config.filters_per_width = 4;
  config.hidden_dim = 10;
  config.max_tags = text::NumTags(3);
  config.context_dim = 8;

  models::EpisodeEncoder encoder(&words, &chars, config.max_tags);
  data::EpisodeSampler sampler(&corpus, corpus.entity_types, 3, 1, 2, 29);

  util::Rng rng(303);
  meta::Fewner fewner(config, &rng);
  fewner.backbone()->SetTraining(false);
  models::EncodedEpisode episode = encoder.Encode(sampler.Sample(0));
  Tensor phi = meta::Fewner::AdaptContextOn(*fewner.backbone(), episode.support,
                                            episode.valid_tags, 2, 0.1f,
                                            /*create_graph=*/false)
                   .Detach();

  for (const auto& sentence : episode.query) {
    Tensor graph_emissions =
        reference::Emissions(*fewner.backbone(), sentence, phi);
    Tensor eval_emissions;
    {
      EvalMode eval;
      eval_emissions = reference::Emissions(*fewner.backbone(), sentence, phi);
    }
    ExpectBitwise(graph_emissions, eval_emissions, "emissions");
  }
}

/// One frozen snapshot, many threads: arenas are per-thread and the snapshot
/// is immutable, so concurrent tagging must be race-free (run under
/// -DFEWNER_SANITIZE=thread via the `tsan` label) and every thread must get
/// the same answers.
TEST(EvalModeModelTest, ConcurrentTaggingIsRaceFreeAndDeterministic) {
  data::SyntheticSpec spec;
  spec.name = "evalmt";
  spec.genre = "newswire";
  spec.num_types = 6;
  spec.num_sentences = 80;
  spec.mentions_per_sentence = 2.0;
  spec.seed = 19;
  data::Corpus corpus = data::GenerateCorpus(spec);

  text::VocabBuilder builder;
  for (const auto& sentence : corpus.sentences) builder.AddSentence(sentence.tokens);
  text::Vocab words = builder.BuildWordVocab();
  text::Vocab chars = builder.BuildCharVocab();

  models::BackboneConfig config;
  config.word_vocab_size = words.size();
  config.char_vocab_size = chars.size();
  config.word_dim = 10;
  config.char_dim = 6;
  config.filters_per_width = 4;
  config.hidden_dim = 10;
  config.max_tags = text::NumTags(3);
  config.context_dim = 8;

  models::EpisodeEncoder encoder(&words, &chars, config.max_tags);
  data::EpisodeSampler sampler(&corpus, corpus.entity_types, 3, 1, 4, 31);

  util::Rng rng(307);
  meta::Fewner fewner(config, &rng);
  models::EncodedEpisode episode = encoder.Encode(sampler.Sample(0));
  meta::AdaptedTagger tagger(&fewner, episode);

  const std::vector<std::vector<int64_t>> reference = tagger.TagAll(episode.query);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<int64_t>>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 5; ++round) {
        results[static_cast<size_t>(w)] = tagger.TagAll(episode.query);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& result : results) EXPECT_EQ(result, reference);
}

}  // namespace
}  // namespace fewner::tensor
