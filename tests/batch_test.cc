// Bitwise-parity suite for batch-first episode execution (DESIGN.md §7).
//
// The contract under test: for any padded, length-masked batch, lane b of the
// batched pipeline is BITWISE-identical (0 ULP, compared with memcmp) to
// running that lane's sentence alone through the per-sentence oracles in
// tests/reference/ — for emissions, hidden states, CRF negative
// log-likelihoods, the summed task loss (including training-mode dropout
// given matching streams), and Viterbi tag sequences.
// Meta-gradients are only required to agree to tolerance (backward reduction
// orders differ), and the second-order path through the batched inner loop is
// checked against central finite differences.  The new batched tensor ops
// (Where, RowSum, UnfoldTimeBatch/FoldTimeBatch) get adjoint,
// finite-difference, and EvalMode differential coverage here too.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "meta/fewner.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "reference/backbone_reference.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/intraop.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/rng.h"

namespace fewner {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::autodiff::Grad;

constexpr int64_t kWordVocab = 50;
constexpr int64_t kCharVocab = 30;

// ----- shared helpers ------------------------------------------------------

void ExpectBitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto& av = a.data();
  const auto& bv = b.data();
  ASSERT_EQ(av.size(), bv.size()) << what;
  if (!av.empty()) {
    EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)), 0)
        << what << ": batched values diverge from the per-sentence path";
  }
}

/// Central finite-difference check of d(loss)/d(x) for every element of x.
void CheckGradient(const std::function<Tensor(const Tensor&)>& loss_fn, Tensor x,
                   float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = loss_fn(x);
  std::vector<Tensor> grads = Grad(loss, {x});
  ASSERT_EQ(grads.size(), 1u);
  const Tensor& g = grads[0];
  ASSERT_EQ(g.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data();
    std::vector<float> minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    Tensor xp = Tensor::FromData(x.shape(), plus, true);
    Tensor xm = Tensor::FromData(x.shape(), minus, true);
    const float numeric = (loss_fn(xp).item() - loss_fn(xm).item()) / (2 * eps);
    EXPECT_NEAR(g.at(i), numeric, tol) << "element " << i;
  }
}

/// Runs `op` in graph mode and under EvalMode; the values must match bitwise.
void CheckEvalParity(const std::string& what, const std::function<Tensor()>& op) {
  Tensor graph_out = op();
  Tensor eval_out;
  {
    tensor::EvalMode eval;
    eval_out = op();
  }
  ExpectBitwise(graph_out, eval_out, what);
}

models::EncodedSentence RandomSentence(util::Rng* rng, int64_t length,
                                       const std::vector<bool>& valid_tags) {
  models::EncodedSentence s;
  for (int64_t t = 0; t < length; ++t) {
    s.word_ids.push_back(
        static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(kWordVocab))));
    const int64_t chars = 1 + static_cast<int64_t>(rng->UniformInt(8));
    std::vector<int64_t> ids;
    for (int64_t c = 0; c < chars; ++c) {
      ids.push_back(
          static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(kCharVocab))));
    }
    s.char_ids.push_back(std::move(ids));
    int64_t tag;
    do {
      tag = static_cast<int64_t>(
          rng->UniformInt(static_cast<uint64_t>(valid_tags.size())));
    } while (!valid_tags[static_cast<size_t>(tag)]);
    s.tags.push_back(tag);
  }
  return s;
}

models::BackboneConfig SmallConfig(models::EncoderKind encoder,
                                   models::Conditioning conditioning) {
  models::BackboneConfig config;
  config.word_vocab_size = kWordVocab;
  config.char_vocab_size = kCharVocab;
  config.word_dim = 10;
  config.char_dim = 6;
  config.filters_per_width = 4;
  config.hidden_dim = 10;
  config.encoder = encoder;
  config.max_tags = text::NumTags(5);
  config.context_dim = 8;
  config.conditioning = conditioning;
  config.dropout = 0.3f;
  return config;
}

// ----- batched tensor ops --------------------------------------------------

TEST(BatchOpsTest, RowSumValuesAndGradient) {
  util::Rng rng(0xB002);
  Tensor x = Tensor::Randn(Shape{3, 5}, &rng, 1.0f, true);
  Tensor y = tensor::RowSum(x);
  ASSERT_EQ(y.shape(), (Shape{3}));
  for (int64_t r = 0; r < 3; ++r) {
    // Per-row result must match the whole-tensor reduction on that row alone —
    // the double-accumulation contract the batched CRF gold score relies on.
    Tensor row = tensor::Slice(x, 0, r, 1);
    EXPECT_EQ(y.at(r), tensor::SumAll(row).item());
  }
  Tensor w = Tensor::Randn(Shape{3}, &rng);
  CheckGradient(
      [&](const Tensor& t) { return tensor::SumAll(tensor::Mul(tensor::RowSum(t), w)); },
      x);
}

TEST(BatchOpsTest, SumAllFloatMatchesScalarAddFoldBitwise) {
  util::Rng rng(0xB006);
  Tensor x = Tensor::Randn(Shape{7}, &rng, 1.0f, true);
  // The contract: identical to folding the elements left-to-right with the
  // scalar float Adds the per-sentence BatchLoss overload performs.
  Tensor folded;
  for (int64_t i = 0; i < 7; ++i) {
    Tensor lane = tensor::Reshape(tensor::Slice(x, 0, i, 1), Shape{});
    folded = folded.defined() ? tensor::Add(folded, lane) : lane;
  }
  const float fused = tensor::SumAllFloat(x).item();
  const float serial = folded.item();
  EXPECT_EQ(std::memcmp(&fused, &serial, sizeof(float)), 0);
  Tensor w = Tensor::Randn(Shape{}, &rng);
  CheckGradient(
      [&](const Tensor& t) { return tensor::Mul(tensor::SumAllFloat(t), w); },
      x);
}

TEST(BatchOpsTest, WhereSelectsExactlyAndRoutesGradient) {
  Tensor cond = Tensor::FromData(Shape{3, 1}, {1.0f, 0.0f, 1.0f});
  util::Rng rng(0xB003);
  Tensor a = Tensor::Randn(Shape{3, 2}, &rng, 1.0f, true);
  Tensor b = Tensor::Randn(Shape{3, 2}, &rng, 1.0f, true);
  Tensor y = tensor::Where(cond, a, b);
  for (int64_t i = 0; i < 6; ++i) {
    const bool take_a = (i / 2) != 1;
    // memcmp-level equality: Where must copy, not blend (a*c + b*(1-c) would
    // flip signed zeros and add rounding).
    const float expected = take_a ? a.at(i) : b.at(i);
    EXPECT_EQ(std::memcmp(&expected, &y.data()[static_cast<size_t>(i)],
                          sizeof(float)),
              0);
  }
  Tensor w = Tensor::Randn(Shape{3, 2}, &rng);
  CheckGradient(
      [&](const Tensor& t) { return tensor::SumAll(tensor::Mul(tensor::Where(cond, t, b), w)); },
      a);
  CheckGradient(
      [&](const Tensor& t) { return tensor::SumAll(tensor::Mul(tensor::Where(cond, a, t), w)); },
      b);
}

TEST(BatchOpsTest, UnfoldAndFoldTimeBatchAreMutuallyAdjoint) {
  util::Rng rng(0xB004);
  const int64_t lanes = 2, time = 5, dim = 3, window = 2;
  Tensor x = Tensor::Randn(Shape{lanes, time, dim}, &rng, 1.0f, true);
  Tensor windows = tensor::UnfoldTimeBatch(x, window);
  ASSERT_EQ(windows.shape(), (Shape{lanes, time - window + 1, window * dim}));
  // Window m of lane n is rows m..m+w-1 of that lane, concatenated.
  for (int64_t n = 0; n < lanes; ++n) {
    for (int64_t m = 0; m < time - window + 1; ++m) {
      for (int64_t w = 0; w < window; ++w) {
        for (int64_t d = 0; d < dim; ++d) {
          EXPECT_EQ(windows.at(((n * (time - window + 1)) + m) * window * dim +
                               w * dim + d),
                    x.at((n * time + m + w) * dim + d));
        }
      }
    }
  }
  // Adjoint identity: <Unfold(x), y> == <x, Fold(y)> for any y.
  Tensor y = Tensor::Randn(windows.shape(), &rng, 1.0f, true);
  const float lhs = tensor::SumAll(tensor::Mul(windows, y)).item();
  const float rhs =
      tensor::SumAll(tensor::Mul(x, tensor::FoldTimeBatch(y, window))).item();
  EXPECT_NEAR(lhs, rhs, 1e-4f);
  CheckGradient(
      [&](const Tensor& t) {
        return tensor::SumAll(tensor::Mul(tensor::UnfoldTimeBatch(t, window), y));
      },
      x);
  CheckGradient(
      [&](const Tensor& t) {
        return tensor::SumAll(tensor::Square(tensor::FoldTimeBatch(t, window)));
      },
      y);
}

TEST(BatchOpsTest, NewOpsMatchBitwiseUnderEvalMode) {
  util::Rng rng(0xB005);
  for (int rep = 0; rep < 20; ++rep) {
    const int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(4));
    const int64_t t = 1 + static_cast<int64_t>(rng.UniformInt(6));
    const int64_t d = 1 + static_cast<int64_t>(rng.UniformInt(5));
    Tensor x = Tensor::Randn(Shape{n, t, d}, &rng);
    Tensor flat = Tensor::Randn(Shape{n, t}, &rng);
    CheckEvalParity("RowSum", [&] { return tensor::RowSum(flat); });
    CheckEvalParity("SumAllFloat", [&] { return tensor::SumAllFloat(flat); });
    const int64_t window = 1 + static_cast<int64_t>(
                                   rng.UniformInt(static_cast<uint64_t>(t)));
    CheckEvalParity("UnfoldTimeBatch",
                    [&] { return tensor::UnfoldTimeBatch(x, window); });
    Tensor wins = Tensor::Randn(Shape{n, t - window + 1, window * d}, &rng);
    CheckEvalParity("FoldTimeBatch",
                    [&] { return tensor::FoldTimeBatch(wins, window); });
    std::vector<float> bits;
    for (int64_t i = 0; i < n; ++i) {
      bits.push_back(rng.Bernoulli(0.5) ? 1.0f : 0.0f);
    }
    Tensor cond = Tensor::FromData(Shape{n, 1, 1}, std::move(bits));
    Tensor alt = Tensor::Randn(x.shape(), &rng);
    CheckEvalParity("Where", [&] { return tensor::Where(cond, x, alt); });
  }
}

// ----- whole-pipeline bitwise parity ---------------------------------------

class BatchParityTest : public ::testing::Test {
 protected:
  /// Random ragged episode: B in [1, 6] sentences of length [1, 12].  Episode
  /// ids ending in 0 force B=1; ids ending in 5 force the all-padding-tail
  /// shape (one long lane, every other lane length 1).
  std::vector<models::EncodedSentence> RandomEpisode(
      uint64_t id, util::Rng* rng, const std::vector<bool>& valid_tags) {
    std::vector<models::EncodedSentence> sentences;
    if (id % 10 == 0) {
      sentences.push_back(RandomSentence(
          rng, 1 + static_cast<int64_t>(rng->UniformInt(12)), valid_tags));
    } else if (id % 10 == 5) {
      sentences.push_back(RandomSentence(rng, 12, valid_tags));
      const int64_t lanes = 2 + static_cast<int64_t>(rng->UniformInt(3));
      for (int64_t b = 0; b < lanes; ++b) {
        sentences.push_back(RandomSentence(rng, 1, valid_tags));
      }
    } else {
      const int64_t lanes = 1 + static_cast<int64_t>(rng->UniformInt(6));
      for (int64_t b = 0; b < lanes; ++b) {
        sentences.push_back(RandomSentence(
            rng, 1 + static_cast<int64_t>(rng->UniformInt(12)), valid_tags));
      }
    }
    return sentences;
  }
};

TEST_F(BatchParityTest, EmissionsNllAndViterbiBitwiseEqualOn100RaggedEpisodes) {
  // Two backbones cover both encoders and both conditioning modes.
  util::Rng init_a(0xA11), init_b(0xB22);
  models::Backbone gru_film(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init_a);
  models::Backbone lstm_concat(
      SmallConfig(models::EncoderKind::kBiLstm, models::Conditioning::kConcat),
      &init_b);
  gru_film.SetTraining(false);
  lstm_concat.SetTraining(false);

  util::Rng rng(0xEE01);
  for (uint64_t id = 0; id < 100; ++id) {
    models::Backbone& net = (id % 2 == 0) ? gru_film : lstm_concat;
    const int64_t n_way = 1 + static_cast<int64_t>(rng.UniformInt(5));
    const std::vector<bool> valid_tags =
        text::ValidTagMask(n_way, net.config().max_tags);
    std::vector<models::EncodedSentence> sentences =
        RandomEpisode(id, &rng, valid_tags);
    const models::EncodedBatch batch = models::PackBatch(sentences);
    Tensor phi = net.ZeroContext();

    // Emissions: lane b's real prefix must match the sentence alone, 0 ULP —
    // both through one unbucketed padded run (padding invariance) and
    // through the library's bucketed prefix/suffix path.
    Tensor batched = reference::PaddedEmissions(net, batch, phi);
    Tensor bucketed = net.EmissionsFromPrefix(net.EncodePrefix(batch), phi);
    for (size_t b = 0; b < sentences.size(); ++b) {
      Tensor alone = reference::Emissions(net, sentences[b], phi).Detach();
      for (const Tensor* emissions : {&batched, &bucketed}) {
        Tensor lane_rows = tensor::Reshape(
            tensor::Slice(*emissions, 0, static_cast<int64_t>(b), 1),
            Shape{batch.max_len, net.config().max_tags});
        Tensor prefix =
            tensor::Slice(lane_rows, 0, 0, sentences[b].length()).Detach();
        const std::string path = emissions == &batched ? "padded" : "bucketed";
        ExpectBitwise(alone, prefix,
                      path + " emissions lane " + std::to_string(b) +
                          " episode " + std::to_string(id));
      }
    }

    // CRF NLL: batched lane values against the per-sentence loss, and the
    // lane-folded task loss against the per-sentence sum.
    Tensor per_lane = net.crf()->NegLogLikelihoodBatch(
        batched, batch.tags, batch.lengths, &valid_tags);
    for (size_t b = 0; b < sentences.size(); ++b) {
      const float alone =
          reference::SentenceLoss(net, sentences[b], phi, valid_tags).item();
      const float lane = per_lane.at(static_cast<int64_t>(b));
      EXPECT_EQ(std::memcmp(&alone, &lane, sizeof(float)), 0)
          << "NLL lane " << b << " episode " << id;
    }
    const float serial =
        reference::BatchLoss(net, sentences, phi, valid_tags).item();
    const float fused = net.BatchLoss(batch, phi, valid_tags).item();
    EXPECT_EQ(std::memcmp(&serial, &fused, sizeof(float)), 0)
        << "task loss, episode " << id;

    // Viterbi: identical tag sequences, lane by lane.
    const auto batched_tags = net.DecodeBatch(batch, phi, valid_tags);
    ASSERT_EQ(batched_tags.size(), sentences.size());
    for (size_t b = 0; b < sentences.size(); ++b) {
      EXPECT_EQ(batched_tags[b],
                reference::Decode(net, sentences[b], phi, valid_tags))
          << "viterbi lane " << b << " episode " << id;
    }
  }
}

TEST_F(BatchParityTest, TrainingModeDropoutLossesAgreeBitwise) {
  // With dropout ON, BatchLoss must still equal the per-sentence sum
  // bitwise: lane b of the batched pass draws from the (episode, call, lane)
  // stream the oracle derives from dropout_base() for sentence b.
  util::Rng init(0xC33);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(true);
  util::Rng rng(0xEE02);
  for (uint64_t id = 0; id < 20; ++id) {
    const std::vector<bool> valid_tags =
        text::ValidTagMask(3, net.config().max_tags);
    std::vector<models::EncodedSentence> sentences =
        RandomEpisode(id, &rng, valid_tags);
    const models::EncodedBatch batch = models::PackBatch(sentences);
    Tensor phi = net.ZeroContext();

    const float serial =
        reference::BatchLoss(net, sentences, phi, valid_tags, id, /*call=*/0)
            .item();
    net.ReseedDropout(id);
    const float fused = net.BatchLoss(batch, phi, valid_tags).item();
    EXPECT_EQ(std::memcmp(&serial, &fused, sizeof(float)), 0)
        << "dropout episode " << id;

    // Successive calls under one reseed must decorrelate (fresh call index),
    // and the second call's streams are call index 1's.
    const float second = net.BatchLoss(batch, phi, valid_tags).item();
    EXPECT_NE(fused, second) << "episode " << id;
    const float serial_second =
        reference::BatchLoss(net, sentences, phi, valid_tags, id, /*call=*/1)
            .item();
    EXPECT_EQ(std::memcmp(&serial_second, &second, sizeof(float)), 0)
        << "second call, dropout episode " << id;
  }
  net.SetTraining(false);
}

TEST_F(BatchParityTest, HiddenRowsEqualPerSentenceOracleBitwise) {
  // The metric baselines' read-out: every real row of Hidden on a ragged
  // batch that spans several lane runs must memcmp-equal the sentence alone,
  // in eval mode and with training-mode dropout, where lane b draws from the
  // (episode, call, b) stream.
  const std::vector<bool> valid_tags = text::ValidTagMask(3, text::NumTags(5));
  util::Rng rng(0xEE06);
  std::vector<models::EncodedSentence> sentences;
  for (int64_t length : {3, 4, 12, 11, 1, 2, 9, 5}) {
    sentences.push_back(RandomSentence(&rng, length, valid_tags));
  }
  const models::EncodedBatch batch = models::PackBatch(sentences);
  int64_t tokens = 0;
  for (int64_t length : batch.lengths) tokens += length;

  uint64_t init_seed = 0xE55;
  for (models::EncoderKind encoder :
       {models::EncoderKind::kBiGru, models::EncoderKind::kBiLstm}) {
    util::Rng init(init_seed++);
    models::Backbone net(SmallConfig(encoder, models::Conditioning::kNone),
                         &init);
    const int64_t dim = 2 * net.config().hidden_dim;
    const auto expect_rows = [&](const Tensor& hidden,
                                 const std::function<Tensor(size_t)>& alone,
                                 const std::string& what) {
      ASSERT_EQ(hidden.shape(), (Shape{tokens, dim})) << what;
      int64_t row = 0;
      for (size_t b = 0; b < sentences.size(); ++b) {
        const int64_t length = sentences[b].length();
        ExpectBitwise(alone(b), tensor::Slice(hidden, 0, row, length).Detach(),
                      what + " lane " + std::to_string(b));
        row += length;
      }
    };

    net.SetTraining(false);
    ASSERT_GE(net.EncodePrefix(batch).runs.size(), 2u);
    expect_rows(
        net.Hidden(batch),
        [&](size_t b) { return reference::Hidden(net, sentences[b]).Detach(); },
        "eval");

    net.SetTraining(true);
    const uint64_t episode = 41;
    net.ReseedDropout(episode);
    for (uint64_t call = 0; call < 2; ++call) {
      Tensor hidden = net.Hidden(batch);
      expect_rows(
          hidden,
          [&](size_t b) {
            util::Rng stream = reference::LaneStream(net, episode, call, b);
            return reference::Hidden(net, sentences[b], &stream).Detach();
          },
          "dropout call " + std::to_string(call));
    }
    // Dropout really drew: the training rows differ from the eval rows.
    Tensor dropped = net.Hidden(batch);
    net.SetTraining(false);
    Tensor clean = net.Hidden(batch);
    EXPECT_NE(std::memcmp(dropped.data().data(), clean.data().data(),
                          clean.data().size() * sizeof(float)),
              0);
  }
}

TEST_F(BatchParityTest, MetaGradientsMatchPerSentencePathToTolerance) {
  // Backward reduction orders differ between the paths, so gradients agree to
  // tolerance, not bitwise.  Inner loop create_graph=true exercises the
  // second-order route through the batched pipeline.
  util::Rng init(0xD44);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  util::Rng rng(0xEE03);
  const std::vector<bool> valid_tags =
      text::ValidTagMask(3, net.config().max_tags);
  std::vector<models::EncodedSentence> support =
      RandomEpisode(3, &rng, valid_tags);
  std::vector<models::EncodedSentence> query = RandomEpisode(7, &rng, valid_tags);
  const models::EncodedBatch support_batch = models::PackBatch(support);
  const models::EncodedBatch query_batch = models::PackBatch(query);

  auto meta_grads = [&](bool batched) {
    Tensor phi = net.ZeroContext();
    for (int k = 0; k < 2; ++k) {
      Tensor loss = batched
                        ? net.BatchLoss(support_batch, phi, valid_tags)
                        : reference::BatchLoss(net, support, phi, valid_tags);
      Tensor g = Grad(loss, {phi}, /*create_graph=*/true)[0];
      phi = tensor::Sub(phi, tensor::MulScalar(g, 0.05f));
    }
    Tensor query_loss =
        batched ? net.BatchLoss(query_batch, phi, valid_tags)
                : reference::BatchLoss(net, query, phi, valid_tags);
    return Grad(query_loss, nn::ParameterTensors(&net));
  };

  std::vector<Tensor> serial = meta_grads(false);
  std::vector<Tensor> fused = meta_grads(true);
  ASSERT_EQ(serial.size(), fused.size());
  double max_abs = 0.0;
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].shape(), fused[i].shape()) << "slot " << i;
    for (int64_t j = 0; j < serial[i].numel(); ++j) {
      max_abs = std::max(max_abs, std::abs(static_cast<double>(serial[i].at(j))));
      EXPECT_NEAR(serial[i].at(j), fused[i].at(j),
                  1e-4f + 1e-3f * std::abs(serial[i].at(j)))
          << "slot " << i << " element " << j;
    }
  }
  EXPECT_GT(max_abs, 1e-8) << "meta-gradient vanished; test is vacuous";
}

TEST_F(BatchParityTest, SecondOrderFiniteDifferenceThroughBatchedInnerLoop) {
  // Perturb individual backbone parameters and compare the autodiff
  // meta-gradient (query loss after a differentiated batched inner loop)
  // against central finite differences.
  util::Rng init(0xE55);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  util::Rng rng(0xEE04);
  const std::vector<bool> valid_tags =
      text::ValidTagMask(3, net.config().max_tags);
  const models::EncodedBatch support =
      models::PackBatch(RandomEpisode(3, &rng, valid_tags));
  const models::EncodedBatch query =
      models::PackBatch(RandomEpisode(7, &rng, valid_tags));

  auto meta_loss = [&]() {
    Tensor phi = net.ZeroContext();
    for (int k = 0; k < 2; ++k) {
      Tensor loss = net.BatchLoss(support, phi, valid_tags);
      Tensor g = Grad(loss, {phi}, /*create_graph=*/true)[0];
      phi = tensor::Sub(phi, tensor::MulScalar(g, 0.05f));
    }
    return net.BatchLoss(query, phi, valid_tags);
  };

  std::vector<Tensor> params = nn::ParameterTensors(&net);
  std::vector<Tensor> analytic = Grad(meta_loss(), params);
  std::vector<Tensor*> slots = net.Parameters();
  ASSERT_EQ(analytic.size(), slots.size());
  // Spot-check a handful of elements across every third parameter tensor:
  // full FD over all parameters would dominate suite runtime.
  const float eps = 1e-2f;
  for (size_t i = 0; i < slots.size(); i += 3) {
    std::vector<float>* values = slots[i]->mutable_data();
    for (int probe = 0; probe < 2; ++probe) {
      const size_t j = rng.UniformInt(values->size());
      const float original = (*values)[j];
      (*values)[j] = original + eps;
      const float plus = meta_loss().item();
      (*values)[j] = original - eps;
      const float minus = meta_loss().item();
      (*values)[j] = original;
      const float numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(analytic[i].at(static_cast<int64_t>(j)), numeric,
                  3e-2f + 0.05f * std::abs(numeric))
          << "slot " << i << " element " << j;
    }
  }
}

TEST_F(BatchParityTest, WholeModelBitwiseInvariantAcrossIntraOpBudgets) {
  // Dims sized so the big GEMMs clear the intra-op dispatch threshold (2^18
  // m·k·n flops at B·L = 100 rows): the budget-4 run genuinely shards, and
  // must stay 0 ULP against the budget-1 (serial) run for emissions, losses,
  // meta-gradients — covering the NT/TN backward family — and Viterbi tags.
  models::BackboneConfig config =
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm);
  config.word_dim = 48;
  config.char_dim = 8;
  config.filters_per_width = 8;
  config.hidden_dim = 48;
  util::Rng init(0xD77);
  models::Backbone net(config, &init);
  net.SetTraining(false);
  util::Rng rng(0xEE06);
  const std::vector<bool> valid_tags = text::ValidTagMask(5, config.max_tags);
  std::vector<models::EncodedSentence> sentences;
  for (int b = 0; b < 5; ++b) {
    sentences.push_back(RandomSentence(&rng, 20, valid_tags));
  }
  const models::EncodedBatch batch = models::PackBatch(sentences);

  struct Run {
    Tensor emissions;
    float loss = 0.0f;
    std::vector<Tensor> grads;
    std::vector<std::vector<int64_t>> tags;
  };
  auto run = [&](int64_t threads) {
    tensor::ParallelismBudget budget(threads);
    Run out;
    Tensor phi0 = net.ZeroContext();
    out.emissions =
        net.EmissionsFromPrefix(net.EncodePrefix(batch), phi0).Detach();
    // One differentiated adaptation step before the outer loss, so the
    // meta-gradient routes through second-order NT/TN backward GEMMs too.
    Tensor phi = tensor::Sub(
        phi0,
        tensor::MulScalar(Grad(net.BatchLoss(batch, phi0, valid_tags), {phi0},
                               /*create_graph=*/true)[0],
                          0.05f));
    Tensor loss = net.BatchLoss(batch, phi, valid_tags);
    out.loss = loss.item();
    out.grads = Grad(loss, nn::ParameterTensors(&net));
    out.tags = net.DecodeBatch(batch, net.ZeroContext(), valid_tags);
    return out;
  };

  const Run serial = run(1);
  for (int64_t threads : {2, 4}) {
    const Run sharded = run(threads);
    const std::string label = "intra-op budget " + std::to_string(threads);
    ExpectBitwise(serial.emissions, sharded.emissions, label + " emissions");
    EXPECT_EQ(std::memcmp(&serial.loss, &sharded.loss, sizeof(float)), 0)
        << label << " query loss";
    ASSERT_EQ(serial.grads.size(), sharded.grads.size());
    for (size_t i = 0; i < serial.grads.size(); ++i) {
      ExpectBitwise(serial.grads[i], sharded.grads[i],
                    label + " meta-gradient slot " + std::to_string(i));
    }
    EXPECT_EQ(serial.tags, sharded.tags) << label << " viterbi tags";
  }
}

// ----- concurrent batched serving (run under -DFEWNER_SANITIZE=thread) -----

TEST(BatchServingTest, ConcurrentBatchedDecodingIsRaceFreeAndDeterministic) {
  util::Rng init(0xF66);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  util::Rng rng(0xEE05);
  const std::vector<bool> valid_tags =
      text::ValidTagMask(3, net.config().max_tags);
  std::vector<models::EncodedSentence> sentences;
  for (int64_t b = 0; b < 6; ++b) {
    sentences.push_back(RandomSentence(
        &rng, 1 + static_cast<int64_t>(rng.UniformInt(12)), valid_tags));
  }
  const models::EncodedBatch batch = models::PackBatch(sentences);
  const Tensor phi = net.ZeroContext().Detach();

  std::vector<std::vector<int64_t>> reference;
  {
    tensor::EvalMode eval;
    reference = net.DecodeBatch(batch, phi, valid_tags);
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<int64_t>>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      tensor::EvalMode eval;
      for (int round = 0; round < 5; ++round) {
        results[static_cast<size_t>(w)] = net.DecodeBatch(batch, phi, valid_tags);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& result : results) EXPECT_EQ(result, reference);
}

}  // namespace
}  // namespace fewner
