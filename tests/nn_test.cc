// Tests for the neural-net layer library: module registration, parameter
// patching, layer forwards (with finite-difference gradient checks through
// composite layers), and optimizers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/char_cnn.h"
#include "nn/gru.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "reference/layer_reference.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::autodiff::Grad;

TEST(ModuleTest, RegistersParametersHierarchically) {
  util::Rng rng(1);
  Linear inner(3, 2, &rng);
  EXPECT_EQ(inner.Parameters().size(), 2u);  // weight + bias
  EXPECT_EQ(inner.ParameterCount(), 3 * 2 + 2);

  auto named = inner.NamedParameters();
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, TrainingFlagPropagates) {
  util::Rng rng(1);
  BiGru gru(4, 3, &rng);
  gru.SetTraining(false);
  EXPECT_FALSE(gru.training());
}

TEST(ModuleTest, CopyParametersFrom) {
  util::Rng rng(1), rng2(2);
  Linear a(3, 2, &rng), b(3, 2, &rng2);
  EXPECT_NE(a.Parameters()[0]->at(0), b.Parameters()[0]->at(0));
  a.CopyParametersFrom(&b);
  EXPECT_FLOAT_EQ(a.Parameters()[0]->at(0), b.Parameters()[0]->at(0));
}

TEST(ParameterPatchTest, ReplacesAndRestores) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  Tensor* weight_slot = layer.Parameters()[0];
  const float original = weight_slot->at(0);
  {
    std::vector<Tensor> replacement = {Tensor::Full(Shape{2, 2}, 9.0f),
                                       Tensor::Zeros(Shape{2})};
    ParameterPatch patch(layer.Parameters(), replacement);
    EXPECT_FLOAT_EQ(layer.Parameters()[0]->at(0), 9.0f);
    Tensor out = layer.Forward(Tensor::Ones(Shape{1, 2}));
    EXPECT_FLOAT_EQ(out.at(0), 18.0f);
  }
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->at(0), original);
}

TEST(ParameterValuesTest, SnapshotRestoreRoundTrip) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  auto snapshot = SnapshotParameterValues(&layer);
  (*layer.Parameters()[0]->mutable_data())[0] += 5.0f;
  RestoreParameterValues(&layer, snapshot);
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->at(0), snapshot[0][0]);
}

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(3);
  Linear layer(2, 1, &rng);
  std::vector<float>* w = layer.Parameters()[0]->mutable_data();
  (*w)[0] = 2.0f;
  (*w)[1] = -1.0f;
  (*layer.Parameters()[1]->mutable_data())[0] = 0.5f;
  Tensor out = layer.Forward(Tensor::FromData(Shape{1, 2}, {3.0f, 4.0f}));
  EXPECT_FLOAT_EQ(out.at(0), 3.0f * 2.0f + 4.0f * (-1.0f) + 0.5f);
}

TEST(LinearTest, GradFlowsToWeights) {
  util::Rng rng(3);
  Linear layer(3, 2, &rng);
  Tensor x = Tensor::Ones(Shape{2, 3});
  Tensor loss = tensor::SumAll(tensor::Square(layer.Forward(x)));
  auto grads = Grad(loss, ParameterTensors(&layer));
  EXPECT_EQ(grads.size(), 2u);
  double norm = 0;
  for (float v : grads[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 0.0);
}

TEST(EmbeddingTest, LookupAndPretrained) {
  util::Rng rng(5);
  Embedding embedding(4, 3, &rng);
  embedding.LoadPretrained({{0, 0, 0}, {1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Tensor out = embedding.Forward({2, 0, 2});
  EXPECT_EQ(out.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(3), 0.0f);
  EXPECT_FLOAT_EQ(out.at(8), 6.0f);
}

TEST(EmbeddingTest, GradAccumulatesOnRepeatedIds) {
  util::Rng rng(5);
  Embedding embedding(3, 2, &rng);
  Tensor out = embedding.Forward({1, 1});
  auto grads = Grad(tensor::SumAll(out), ParameterTensors(&embedding));
  EXPECT_FLOAT_EQ(grads[0].at(2), 2.0f);  // row 1 selected twice
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm norm(4);
  Tensor x = Tensor::FromData(Shape{2, 4}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor out = norm.Forward(x);
  // First row: mean 2.5 removed, unit variance.
  double mean = 0;
  for (int i = 0; i < 4; ++i) mean += out.at(i);
  EXPECT_NEAR(mean, 0.0, 1e-4);
  // Constant row stays ~0 (variance eps guard, no NaN).
  EXPECT_NEAR(out.at(4), 0.0f, 1e-2);
  EXPECT_FALSE(std::isnan(out.at(4)));
}

TEST(FilmTest, ZeroContextIsIdentity) {
  util::Rng rng(7);
  FilmGenerator film(4, 3, &rng);
  Tensor h = Tensor::FromData(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor out = film.Forward(h, Tensor::Zeros(Shape{4}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_NEAR(out.at(i), h.at(i), 1e-6);
}

TEST(FilmTest, NonZeroContextModulates) {
  util::Rng rng(7);
  FilmGenerator film(4, 3, &rng);
  Tensor h = Tensor::Ones(Shape{2, 3});
  Tensor out = film.Forward(h, Tensor::Ones(Shape{4}));
  bool changed = false;
  for (int64_t i = 0; i < 6; ++i) changed = changed || std::abs(out.at(i) - 1.0f) > 1e-4;
  EXPECT_TRUE(changed);
}

TEST(FilmTest, GradReachesContext) {
  util::Rng rng(7);
  FilmGenerator film(4, 3, &rng);
  Tensor h = Tensor::Ones(Shape{2, 3});
  Tensor phi = Tensor::Zeros(Shape{4}, /*requires_grad=*/true);
  Tensor loss = tensor::SumAll(tensor::Square(film.Forward(h, phi)));
  auto g = Grad(loss, {phi});
  double norm = 0;
  for (float v : g[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 0.0);
}

TEST(CharCnnTest, ShapesAndShortWordPadding) {
  util::Rng rng(9);
  CharCnnConfig config;
  config.char_vocab_size = 20;
  config.char_dim = 6;
  config.filter_widths = {2, 3};
  config.filters_per_width = 4;
  CharCnn cnn(config, &rng);
  EXPECT_EQ(cnn.output_dim(), 8);
  // Words shorter than the widest filter must still encode (padding).
  Tensor out = cnn.ForwardBatch({{5}, {3, 4, 5, 6, 7}, {2, 2}});
  EXPECT_EQ(out.shape(), (Shape{3, 8}));
}

TEST(CharCnnTest, SuffixSensitivity) {
  // Two words sharing a suffix should be closer in CNN space than unrelated
  // words, since max-pooled filters fire on the shared window.
  util::Rng rng(11);
  CharCnnConfig config;
  config.char_vocab_size = 30;
  config.char_dim = 8;
  config.filters_per_width = 8;
  CharCnn cnn(config, &rng);
  auto encode = [&](std::vector<int64_t> word) {
    return cnn.ForwardBatch({std::move(word)});
  };
  Tensor a = encode({4, 5, 10, 11, 12});   // stem A + suffix
  Tensor b = encode({7, 8, 10, 11, 12});   // stem B + same suffix
  Tensor c = encode({14, 15, 16, 17, 18});  // unrelated
  auto dist = [&](const Tensor& x, const Tensor& y) {
    double d = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
      d += (x.at(i) - y.at(i)) * (x.at(i) - y.at(i));
    }
    return d;
  };
  EXPECT_LT(dist(a, b), dist(a, c));
}

TEST(CharCnnTest, BatchRowsEqualPerWordOracleBitwise) {
  // Row i of ForwardBatch must equal the word convolved alone
  // (reference::CharCnnWord) to the last bit, in graph mode and under
  // EvalMode.  Each list mixes empty (padding) tokens, words shorter than the
  // widest filter and one word much longer than the rest, so every other row
  // has windows past its own padded length that the -1e30 mask must sink.
  const std::vector<std::vector<int64_t>> width_sets = {
      {1}, {2, 3}, {2, 3, 4}, {1, 4, 6}};
  util::Rng rng(0xC4A2);
  for (const auto& widths : width_sets) {
    CharCnnConfig config;
    config.char_vocab_size = 25;
    config.char_dim = 5;
    config.filter_widths = widths;
    config.filters_per_width = 3;
    CharCnn cnn(config, &rng);
    const int64_t dim = cnn.output_dim();
    for (int list = 0; list < 10; ++list) {
      std::vector<std::vector<int64_t>> words;
      const int64_t count = 1 + static_cast<int64_t>(rng.UniformInt(12));
      for (int64_t i = 0; i < count; ++i) {
        const int64_t length =
            rng.Bernoulli(0.15) ? 0 : 1 + static_cast<int64_t>(rng.UniformInt(6));
        std::vector<int64_t> word;
        for (int64_t c = 0; c < length; ++c) {
          word.push_back(1 + static_cast<int64_t>(rng.UniformInt(24)));
        }
        words.push_back(std::move(word));
      }
      const int64_t long_length = 20 + static_cast<int64_t>(rng.UniformInt(6));
      std::vector<int64_t> long_word;
      for (int64_t c = 0; c < long_length; ++c) {
        long_word.push_back(1 + static_cast<int64_t>(rng.UniformInt(24)));
      }
      words.insert(words.begin() + static_cast<int64_t>(rng.UniformInt(
                                       static_cast<uint64_t>(count + 1))),
                   std::move(long_word));

      for (const bool eval : {false, true}) {
        std::optional<tensor::EvalMode> scope;
        if (eval) scope.emplace();
        Tensor batch = cnn.ForwardBatch(words);
        ASSERT_EQ(batch.shape(), (Shape{static_cast<int64_t>(words.size()), dim}));
        for (size_t i = 0; i < words.size(); ++i) {
          Tensor alone = reference::CharCnnWord(cnn, words[i]);
          ASSERT_EQ(alone.shape(), (Shape{dim}));
          EXPECT_EQ(std::memcmp(batch.data().data() + i * static_cast<size_t>(dim),
                                alone.data().data(),
                                static_cast<size_t>(dim) * sizeof(float)),
                    0)
              << (eval ? "eval" : "graph") << " mode, widths " << widths.size()
              << ", list " << list << ", word " << i << " of length "
              << words[i].size();
        }
      }
    }
  }
}

TEST(CharCnnTest, DuplicateHeavyRowsEqualPerWordOracleBitwise) {
  // Under EvalMode ForwardBatch convolves in padded-length buckets and
  // gathers rows back; graph mode keeps one row per token.
  // Lists full of repeats, empty tokens and several padded lengths must still
  // give every row the word-alone bits in both modes.
  util::Rng rng(0xD0B1);
  const auto random_word = [&rng](int64_t length) {
    std::vector<int64_t> word;
    for (int64_t c = 0; c < length; ++c) {
      word.push_back(1 + static_cast<int64_t>(rng.UniformInt(24)));
    }
    return word;
  };
  for (const auto& widths : std::vector<std::vector<int64_t>>{{2, 3, 4}, {1, 4, 6}}) {
    CharCnnConfig config;
    config.char_vocab_size = 25;
    config.char_dim = 5;
    config.filter_widths = widths;
    config.filters_per_width = 3;
    CharCnn cnn(config, &rng);
    const int64_t dim = cnn.output_dim();

    std::vector<std::vector<std::vector<int64_t>>> lists;
    for (int list = 0; list < 6; ++list) {
      // Lengths 1..3 pad to the widest filter; 7, 9 and 12 pad to
      // themselves: at least three distinct padded lengths per list.
      std::vector<std::vector<int64_t>> words;
      for (int64_t length : {1, 2, 3, 7, 9, 12}) {
        const std::vector<int64_t> word = random_word(length);
        const int64_t repeats = 2 + static_cast<int64_t>(rng.UniformInt(3));
        for (int64_t r = 0; r < repeats; ++r) words.push_back(word);
      }
      const int64_t empties = 2 + static_cast<int64_t>(rng.UniformInt(4));
      for (int64_t e = 0; e < empties; ++e) words.emplace_back();
      rng.Shuffle(&words);
      lists.push_back(std::move(words));
    }
    lists.push_back(std::vector<std::vector<int64_t>>(7));  // only empty tokens
    lists.push_back(std::vector<std::vector<int64_t>>(11, random_word(5)));

    for (size_t list = 0; list < lists.size(); ++list) {
      const auto& words = lists[list];
      for (const bool eval : {false, true}) {
        std::optional<tensor::EvalMode> scope;
        if (eval) scope.emplace();
        Tensor batch = cnn.ForwardBatch(words);
        ASSERT_EQ(batch.shape(), (Shape{static_cast<int64_t>(words.size()), dim}));
        for (size_t i = 0; i < words.size(); ++i) {
          Tensor alone = reference::CharCnnWord(cnn, words[i]);
          EXPECT_EQ(std::memcmp(batch.data().data() + i * static_cast<size_t>(dim),
                                alone.data().data(),
                                static_cast<size_t>(dim) * sizeof(float)),
                    0)
              << (eval ? "eval" : "graph") << " mode, widths " << widths.size()
              << ", list " << list << ", word " << i << " of length "
              << words[i].size();
        }
      }
    }
  }
}

TEST(GruTest, ShapesAndStatePropagation) {
  util::Rng rng(13);
  GruCell cell(4, 3, &rng);
  Tensor x = Tensor::Randn(Shape{5, 4}, &rng);
  Tensor projected = cell.ProjectInput(x);
  EXPECT_EQ(projected.shape(), (Shape{5, 9}));
  Tensor h = Tensor::Zeros(Shape{1, 3});
  Tensor h1 = cell.Step(tensor::Slice(projected, 0, 0, 1), h);
  EXPECT_EQ(h1.shape(), (Shape{1, 3}));
  // State must change from zero on non-trivial input.
  double norm = 0;
  for (float v : h1.data()) norm += std::abs(v);
  EXPECT_GT(norm, 1e-4);

  // RunBatch at B=1 is exactly this ProjectInput + Step loop, 0 ULP, in both
  // directions (the frozen ELMo/Flair LMs run one sentence this way).
  for (const bool reverse : {false, true}) {
    Tensor run = cell.RunBatch(tensor::Reshape(x, Shape{1, 5, 4}), {5}, reverse);
    ASSERT_EQ(run.shape(), (Shape{1, 5, 3}));
    Tensor state = Tensor::Zeros(Shape{1, 3});
    for (int64_t step = 0; step < 5; ++step) {
      const int64_t t = reverse ? 4 - step : step;
      state = cell.Step(tensor::Slice(projected, 0, t, 1), state);
      EXPECT_EQ(std::memcmp(run.data().data() + t * 3, state.data().data(),
                            3 * sizeof(float)),
                0)
          << (reverse ? "reverse" : "forward") << " position " << t;
    }
  }
}

/// One sentence [L, D] through `rnn`'s batched forward as a B=1 batch.
template <typename Rnn>
Tensor ForwardOne(const Rnn& rnn, const Tensor& x) {
  const int64_t length = x.shape().dim(0);
  return rnn.ForwardBatch(
      tensor::Reshape(x, Shape{1, length, x.shape().dim(1)}), {length});
}

TEST(BiGruTest, OutputShapeAndDirectionality) {
  util::Rng rng(15);
  BiGru gru(3, 4, &rng);
  Tensor x = Tensor::Randn(Shape{6, 3}, &rng);
  Tensor out = ForwardOne(gru, x);
  EXPECT_EQ(out.shape(), (Shape{1, 6, 8}));

  // Changing the LAST token must change the backward features of the FIRST
  // token (information flows right-to-left) but not its forward features.
  std::vector<float> perturbed = x.data();
  perturbed[15] += 1.0f;  // last row, first feature
  Tensor out2 = ForwardOne(gru, Tensor::FromData(Shape{6, 3}, perturbed));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(j), out2.at(j)) << "forward feature " << j;
  }
  double backward_delta = 0;
  for (int64_t j = 4; j < 8; ++j) backward_delta += std::abs(out.at(j) - out2.at(j));
  EXPECT_GT(backward_delta, 1e-5);
}

TEST(BiGruTest, GradCheckThroughTime) {
  util::Rng rng(17);
  BiGru gru(2, 2, &rng);
  Tensor x = Tensor::Randn(Shape{3, 2}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor loss = tensor::SumAll(tensor::Square(ForwardOne(gru, x)));
  auto g = Grad(loss, {x});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data(), minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    const float lp = tensor::SumAll(tensor::Square(ForwardOne(
                         gru, Tensor::FromData(x.shape(), plus))))
                         .item();
    const float lm = tensor::SumAll(tensor::Square(ForwardOne(
                         gru, Tensor::FromData(x.shape(), minus))))
                         .item();
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 5e-2) << "element " << i;
  }
}

/// Lane b of a ragged ForwardBatch must equal ForwardBatch on lane b alone,
/// 0 ULP, in both directions: forward lanes that finished early and reverse
/// lanes that have not started yet are carried by Where, and the garbage in
/// their padding rows must not leak into real rows.
template <typename Rnn>
void ExpectRaggedLanesEqualLanesAlone(const Rnn& rnn, int64_t input_dim,
                                      util::Rng* rng) {
  const std::vector<int64_t> lengths = {5, 2, 7, 1, 7, 3};
  const int64_t lanes = static_cast<int64_t>(lengths.size());
  const int64_t max_len = 7;
  Tensor x = Tensor::Randn(Shape{lanes, max_len, input_dim}, rng);
  Tensor batched = rnn.ForwardBatch(x, lengths);
  const int64_t width = batched.shape().dim(2);
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t length = lengths[static_cast<size_t>(b)];
    Tensor lane_input = tensor::Slice(tensor::Slice(x, 0, b, 1), 1, 0, length);
    Tensor alone = rnn.ForwardBatch(lane_input, {length});
    Tensor lane_rows =
        tensor::Slice(tensor::Slice(batched, 0, b, 1), 1, 0, length);
    ASSERT_EQ(alone.shape(), (Shape{1, length, width})) << "lane " << b;
    EXPECT_EQ(std::memcmp(alone.data().data(), lane_rows.data().data(),
                          alone.data().size() * sizeof(float)),
              0)
        << "lane " << b << " (length " << length << ") diverges from the lane "
        << "alone";
  }
}

TEST(RnnLaneTest, RaggedBatchLanesEqualLanesAloneBitwise) {
  util::Rng rng(23);
  BiGru gru(4, 3, &rng);
  ExpectRaggedLanesEqualLanesAlone(gru, 4, &rng);
  BiLstm lstm(4, 3, &rng);
  ExpectRaggedLanesEqualLanesAlone(lstm, 4, &rng);
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  util::Rng rng(19);
  SelfAttention attention(4, AttentionMask::kCausal, &rng);
  Tensor x = Tensor::Randn(Shape{5, 4}, &rng);
  Tensor out = attention.Forward(x);
  // Perturbing the last token must not change the first token's output.
  std::vector<float> perturbed = x.data();
  perturbed[16] += 2.0f;
  Tensor out2 = attention.Forward(Tensor::FromData(Shape{5, 4}, perturbed));
  for (int64_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(out.at(j), out2.at(j));
}

TEST(AttentionTest, BidirectionalSeesFuture) {
  util::Rng rng(19);
  SelfAttention attention(4, AttentionMask::kNone, &rng);
  Tensor x = Tensor::Randn(Shape{5, 4}, &rng);
  Tensor out = attention.Forward(x);
  std::vector<float> perturbed = x.data();
  perturbed[16] += 2.0f;
  Tensor out2 = attention.Forward(Tensor::FromData(Shape{5, 4}, perturbed));
  double delta = 0;
  for (int64_t j = 0; j < 4; ++j) delta += std::abs(out.at(j) - out2.at(j));
  EXPECT_GT(delta, 1e-6);
}

TEST(TransformerBlockTest, ShapePreservingAndDifferentiable) {
  util::Rng rng(21);
  TransformerBlock block(4, 8, AttentionMask::kCausal, &rng);
  Tensor x = Tensor::Randn(Shape{3, 4}, &rng, 1.0f, true);
  Tensor out = block.Forward(x);
  EXPECT_EQ(out.shape(), (Shape{3, 4}));
  auto g = Grad(tensor::SumAll(tensor::Square(out)), {x});
  EXPECT_EQ(g[0].shape(), x.shape());
}

TEST(DilatedCausalConvTest, CausalityAndGrowth) {
  util::Rng rng(23);
  DilatedCausalConv conv(3, 2, 2, &rng);
  Tensor x = Tensor::Randn(Shape{5, 3}, &rng);
  Tensor out = conv.Forward(x, {5});
  EXPECT_EQ(out.shape(), (Shape{5, 5}));
  // Perturb the last position: outputs at position 0 must not change.
  std::vector<float> perturbed = x.data();
  perturbed[12] += 1.0f;
  Tensor out2 = conv.Forward(Tensor::FromData(Shape{5, 3}, perturbed), {5});
  for (int64_t j = 0; j < 5; ++j) EXPECT_FLOAT_EQ(out.at(j), out2.at(j));
}

TEST(DilatedCausalConvTest, NeverShiftsAcrossSentenceBoundary) {
  // Two sentences stacked row-wise: each one's rows must be bitwise what the
  // conv computes on that sentence alone.
  util::Rng rng(24);
  DilatedCausalConv conv(3, 2, 2, &rng);
  Tensor x = Tensor::Randn(Shape{7, 3}, &rng);
  Tensor both = conv.Forward(x, {3, 4});
  ASSERT_EQ(both.shape(), (Shape{7, 5}));
  int64_t row = 0;
  for (int64_t length : {3, 4}) {
    Tensor alone = conv.Forward(tensor::Slice(x, 0, row, length), {length});
    Tensor rows = tensor::Slice(both, 0, row, length);
    EXPECT_EQ(std::memcmp(alone.data().data(), rows.data().data(),
                          alone.data().size() * sizeof(float)),
              0)
        << "sentence at row " << row;
    row += length;
  }
  EXPECT_DEATH(conv.Forward(x, {3, 3}), "lengths sum to 6");
}

TEST(OptimTest, ClipGradNorm) {
  std::vector<Tensor> grads = {Tensor::Full(Shape{4}, 3.0f)};  // norm 6
  float norm = ClipGradNorm(&grads, 3.0f);
  EXPECT_NEAR(norm, 6.0f, 1e-4);
  double new_norm = 0;
  for (float v : grads[0].data()) new_norm += v * v;
  EXPECT_NEAR(std::sqrt(new_norm), 3.0f, 1e-3);

  std::vector<Tensor> small = {Tensor::Full(Shape{4}, 0.1f)};
  ClipGradNorm(&small, 3.0f);
  EXPECT_FLOAT_EQ(small[0].at(0), 0.1f);  // untouched below the cap
}

TEST(OptimTest, SgdConvergesOnQuadratic) {
  Tensor w = Tensor::FromData(Shape{2}, {5.0f, -3.0f}, true);
  Sgd sgd({&w}, 0.2f);
  for (int step = 0; step < 60; ++step) {
    Tensor loss = tensor::SumAll(tensor::Square(w));
    sgd.Step(Grad(loss, {w}));
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-3);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-3);
}

TEST(OptimTest, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::FromData(Shape{2}, {5.0f, -3.0f}, true);
  Adam adam({&w}, 0.3f);
  for (int step = 0; step < 200; ++step) {
    Tensor loss = tensor::SumAll(tensor::Square(w));
    adam.Step(Grad(loss, {w}));
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-2);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-2);
}

TEST(OptimTest, AdamLrDecay) {
  Tensor w = Tensor::Zeros(Shape{1}, true);
  Adam adam({&w}, 1.0f);
  adam.DecayLr(0.9f);
  EXPECT_NEAR(adam.lr(), 0.9f, 1e-6);
}

TEST(OptimTest, WeightDecayShrinksParameters) {
  Tensor w = Tensor::FromData(Shape{1}, {10.0f}, true);
  Sgd sgd({&w}, 0.1f, /*weight_decay=*/0.5f);
  sgd.Step({Tensor::Zeros(Shape{1})});
  EXPECT_LT(w.at(0), 10.0f);
}

}  // namespace
}  // namespace fewner::nn

// Serialization tests live here since they operate on Module parameters.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "nn/serialization.h"

namespace fewner::nn {
namespace {

TEST(SerializationTest, SaveLoadRoundTrip) {
  util::Rng rng(1), rng2(2);
  BiGru a(4, 3, &rng);
  BiGru b(4, 3, &rng2);
  const std::string path = ::testing::TempDir() + "/fewner_ckpt.bin";
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->data(), pb[i]->data()) << "slot " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, ShapeMismatchIsRejected) {
  util::Rng rng(1);
  Linear a(3, 2, &rng);
  Linear b(3, 4, &rng);
  const std::string path = ::testing::TempDir() + "/fewner_bad.bin";
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  EXPECT_FALSE(LoadParameters(&b, path).ok());
  std::remove(path.c_str());
}

/// Two parameters, "first" [2, 3] and "last" [last_dim], filled with `fill`.
class TwoParameters : public Module {
 public:
  TwoParameters(int64_t last_dim, float fill)
      : first_(Tensor::FromData(Shape{2, 3}, std::vector<float>(6, fill))),
        last_(Tensor::FromData(Shape{last_dim},
                               std::vector<float>(static_cast<size_t>(last_dim), fill))) {
    RegisterParameter("first", &first_);
    RegisterParameter("last", &last_);
  }

 private:
  Tensor first_;
  Tensor last_;
};

/// A failed load must leave every parameter as it was, not only those past
/// the point of failure.
void ExpectFailedLoadLeavesModuleUntouched(Module* module, const std::string& path) {
  const auto before = SnapshotParameterValues(module);
  EXPECT_FALSE(LoadParameters(module, path).ok());
  const auto after = SnapshotParameterValues(module);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i].size(), after[i].size());
    EXPECT_EQ(std::memcmp(before[i].data(), after[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "parameter " << i << " was overwritten";
  }
}

TEST(SerializationTest, LastParameterShapeMismatchLoadsNothing) {
  TwoParameters saved(4, 1.0f);
  TwoParameters target(5, 2.0f);
  const std::string path = ::testing::TempDir() + "/fewner_last_shape.bin";
  ASSERT_TRUE(SaveParameters(&saved, path).ok());
  ExpectFailedLoadLeavesModuleUntouched(&target, path);
  std::remove(path.c_str());
}

TEST(SerializationTest, FileTruncatedInLastValuesLoadsNothing) {
  TwoParameters saved(4, 1.0f);
  TwoParameters target(4, 2.0f);
  const std::string path = ::testing::TempDir() + "/fewner_truncated.bin";
  ASSERT_TRUE(SaveParameters(&saved, path).ok());
  // Cut the file inside the last parameter's float values.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 6);
  ExpectFailedLoadLeavesModuleUntouched(&target, path);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsNotFound) {
  util::Rng rng(1);
  Linear a(2, 2, &rng);
  util::Status status = LoadParameters(&a, "/nonexistent/fewner.bin");
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(SerializationTest, GarbageFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/fewner_garbage.bin";
  { std::ofstream out(path); out << "this is not a checkpoint"; }
  util::Rng rng(1);
  Linear a(2, 2, &rng);
  EXPECT_FALSE(LoadParameters(&a, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fewner::nn
