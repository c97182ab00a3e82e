// Correctness suite for frozen-θ prefix caching (DESIGN.md §8).
//
// The contract under test has two regimes.  Test time (!create_graph,
// dropout off): adaptation through a CachedPrefix, and AdaptedTagger's
// snapshot, are BITWISE-equal (0 ULP, compared with memcmp) to the uncached
// per-step forward — support losses, inner φ gradients, the final φ*, and
// Viterbi tags.  Meta-training (create_graph): the prefix is one shared
// autodiff subgraph reused by every inner-step loss, and the meta-gradient
// agrees with the serial per-step path to tolerance (fan-in summation order
// at the shared node differs) and with central finite differences.  Stale-cache use
// after any θ mutation must abort, in every consumer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "meta/adapted_tagger.h"
#include "meta/fewner.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "reference/backbone_reference.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/rng.h"

namespace fewner::meta {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::autodiff::Grad;

constexpr int64_t kWordVocab = 50;
constexpr int64_t kCharVocab = 30;

void ExpectBitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto& av = a.data();
  const auto& bv = b.data();
  ASSERT_EQ(av.size(), bv.size()) << what;
  if (!av.empty()) {
    EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)), 0)
        << what << ": cached values diverge from the uncached path";
  }
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

/// Per-step record of one inner loop: support losses, φ gradients, final φ.
struct AdaptTrace {
  std::vector<float> losses;
  std::vector<Tensor> grads;
  Tensor phi;
};

/// The test-time inner loop of Fewner::AdaptContextOn, spelled out so the
/// loss forward can be swapped between the uncached BatchLoss and the cached
/// BatchLossFromPrefix.  Mirrors the production loop exactly (clip 5.0,
/// re-leaf per step).
AdaptTrace TracedDescent(const models::Backbone& net, int64_t steps, float lr,
                         const std::function<Tensor(const Tensor&)>& loss_fn) {
  AdaptTrace trace;
  Tensor phi = net.ZeroContext();
  for (int64_t k = 0; k < steps; ++k) {
    Tensor loss = loss_fn(phi);
    trace.losses.push_back(loss.item());
    Tensor grad = Grad(loss, {phi})[0];
    trace.grads.push_back(grad);
    double norm_sq = 0.0;
    for (float v : grad.data()) norm_sq += static_cast<double>(v) * v;
    const float norm = static_cast<float>(std::sqrt(norm_sq));
    const float clip_scale = norm > 5.0f ? 5.0f / norm : 1.0f;
    phi = tensor::Sub(phi, tensor::MulScalar(grad, lr * clip_scale));
    Tensor leaf = phi.Detach();
    leaf.set_requires_grad(true);
    phi = leaf;
  }
  trace.phi = phi;
  return trace;
}

class PrefixCacheTest : public ::testing::Test {
 protected:
  /// Random ragged episode: B in [1, 6] sentences of length [1, 12].  Episode
  /// ids ending in 0 force B=1; ids ending in 5 force the all-padding-tail
  /// shape (one long lane, every other lane length 1 — a multi-run LaneRuns
  /// partition, so run repacking and refolding get exercised).
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

// ----- test-time 0-ULP parity ----------------------------------------------

TEST_F(PrefixCacheTest, CachedAdaptationBitwiseEqualOn100RaggedEpisodes) {
  // Two backbones cover both encoders and both conditioning modes; episodes
  // cover B=1 and multi-run ragged shapes.  A third backbone at paper dims
  // (word 300, char 100, 50 filters per width, hidden 128, |φ| 256) runs a
  // few more episodes, so the served model's shapes are gated too.
  util::Rng init_a(0xA11), init_b(0xB22), init_c(0xC33);
  models::Backbone gru_film(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init_a);
  models::Backbone lstm_concat(
      SmallConfig(models::EncoderKind::kBiLstm, models::Conditioning::kConcat),
      &init_b);
  models::BackboneConfig paper_config =
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm);
  paper_config.word_dim = 300;
  paper_config.char_dim = 100;
  paper_config.filters_per_width = 50;
  paper_config.hidden_dim = 128;
  paper_config.context_dim = 256;
  models::Backbone paper(paper_config, &init_c);
  gru_film.SetTraining(false);
  lstm_concat.SetTraining(false);
  paper.SetTraining(false);

  constexpr int64_t kSteps = 3;
  constexpr float kLr = 0.1f;
  constexpr uint64_t kEpisodes = 100;
  constexpr uint64_t kPaperEpisodes = 6;  // ids 100..105: B=1 and multi-run
  util::Rng rng(0x9E01);
  for (uint64_t id = 0; id < kEpisodes + kPaperEpisodes; ++id) {
    models::Backbone& net = id >= kEpisodes ? paper
                            : (id % 2 == 0) ? gru_film
                                            : lstm_concat;
    const int64_t n_way = 1 + static_cast<int64_t>(rng.UniformInt(5));
    const std::vector<bool> valid_tags =
        text::ValidTagMask(n_way, net.config().max_tags);
    std::vector<models::EncodedSentence> support =
        RandomEpisode(id, &rng, valid_tags);
    std::vector<models::EncodedSentence> query =
        RandomEpisode(id + 1, &rng, valid_tags);
    const models::EncodedBatch support_batch = models::PackBatch(support);
    const models::EncodedBatch query_batch = models::PackBatch(query);

    // Uncached reference: one full forward per inner step.
    AdaptTrace uncached =
        TracedDescent(net, kSteps, kLr, [&](const Tensor& phi) {
          return net.BatchLoss(support_batch, phi, valid_tags);
        });

    // Cached: θ-prefix once (graph-free, like AdaptContextOn), suffix per step.
    models::CachedPrefix prefix;
    {
      tensor::EvalMode eval;
      prefix = net.EncodePrefix(support_batch);
    }
    AdaptTrace cached = TracedDescent(net, kSteps, kLr, [&](const Tensor& phi) {
      return net.BatchLossFromPrefix(prefix, phi, valid_tags);
    });

    for (int64_t k = 0; k < kSteps; ++k) {
      const float a = uncached.losses[static_cast<size_t>(k)];
      const float b = cached.losses[static_cast<size_t>(k)];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
          << "support loss, step " << k << " episode " << id;
      ExpectBitwise(uncached.grads[static_cast<size_t>(k)],
                    cached.grads[static_cast<size_t>(k)],
                    "phi gradient, step " + std::to_string(k) + " episode " +
                        std::to_string(id));
    }
    ExpectBitwise(uncached.phi, cached.phi,
                  "final phi, episode " + std::to_string(id));

    // The production AdaptContextOn (which caches internally) vs. the
    // reference loop, and graph-free query tags vs. the graph-mode decode.
    Tensor production = Fewner::AdaptContextOn(net, support, valid_tags, kSteps,
                                               kLr, /*create_graph=*/false);
    ExpectBitwise(uncached.phi, production,
                  "AdaptContextOn phi, episode " + std::to_string(id));
    const auto plain_tags =
        net.DecodeBatch(query_batch, uncached.phi, valid_tags);
    std::vector<std::vector<int64_t>> eval_tags;
    {
      tensor::EvalMode eval;
      eval_tags = net.DecodeBatch(query_batch, cached.phi, valid_tags);
    }
    EXPECT_EQ(plain_tags, eval_tags) << "viterbi tags, episode " << id;

    // Serving: the AdaptedTagger snapshot adapts and tags exactly like the
    // uncached reference.
    const AdaptedTagger tagger(&net, support, valid_tags, kSteps, kLr);
    ExpectBitwise(uncached.phi, tagger.phi(),
                  "AdaptedTagger phi, episode " + std::to_string(id));
    EXPECT_EQ(plain_tags, tagger.TagAll(query))
        << "AdaptedTagger tags, episode " << id;
  }
}

TEST_F(PrefixCacheTest, SplitPointsAndEmissionsPerConditioningMode) {
  util::Rng rng(0x9E02);
  const struct {
    models::Conditioning mode;
    const char* name;
  } cases[] = {{models::Conditioning::kFilm, "kFilm"},
               {models::Conditioning::kConcat, "kConcat"},
               {models::Conditioning::kNone, "kNone"}};
  for (const auto& c : cases) {
    util::Rng init(0xC33);
    models::BackboneConfig config =
        SmallConfig(models::EncoderKind::kBiGru, c.mode);
    if (c.mode == models::Conditioning::kNone) config.context_dim = 0;
    models::Backbone net(config, &init);
    net.SetTraining(false);
    const std::vector<bool> valid_tags =
        text::ValidTagMask(3, config.max_tags);
    std::vector<models::EncodedSentence> sentences =
        RandomEpisode(5, &rng, valid_tags);  // multi-run ragged shape
    const models::EncodedBatch batch = models::PackBatch(sentences);

    models::CachedPrefix prefix = net.EncodePrefix(batch);
    // Split point: kConcat caches only the pre-recurrence token features
    // (φ joins the BiGRU input); kFilm/kNone cache through the BiGRU.
    const int64_t char_feat =
        static_cast<int64_t>(config.filter_widths.size()) *
        config.filters_per_width;
    const int64_t expect_dim = c.mode == models::Conditioning::kConcat
                                   ? config.word_dim + char_feat
                                   : 2 * config.hidden_dim;
    ASSERT_FALSE(prefix.runs.empty()) << c.name;
    EXPECT_GT(prefix.runs.size(), 1u) << c.name << ": episode not multi-run";
    for (const auto& run : prefix.runs) {
      EXPECT_EQ(run.features.shape().dim(2), expect_dim) << c.name;
    }

    // Emission parity: every lane's real rows match one unbucketed padded
    // run of the whole batch bitwise (padding rows are unspecified there,
    // zero here).
    Tensor phi = net.ZeroContext();
    Tensor plain = reference::PaddedEmissions(net, batch, phi).Detach();
    Tensor cached = net.EmissionsFromPrefix(prefix, phi).Detach();
    ASSERT_EQ(plain.shape(), cached.shape()) << c.name;
    for (size_t b = 0; b < sentences.size(); ++b) {
      Tensor plain_lane = tensor::Reshape(
          tensor::Slice(plain, 0, static_cast<int64_t>(b), 1),
          Shape{batch.max_len, config.max_tags});
      Tensor cached_lane = tensor::Reshape(
          tensor::Slice(cached, 0, static_cast<int64_t>(b), 1),
          Shape{batch.max_len, config.max_tags});
      ExpectBitwise(
          tensor::Slice(plain_lane, 0, 0, sentences[b].length()).Detach(),
          tensor::Slice(cached_lane, 0, 0, sentences[b].length()).Detach(),
          std::string(c.name) + " emissions lane " + std::to_string(b));
    }

    // Loss and decode parity for this mode too (kNone runs a φ-free suffix).
    const float plain_loss = net.BatchLoss(batch, phi, valid_tags).item();
    const float cached_loss =
        net.BatchLossFromPrefix(prefix, phi, valid_tags).item();
    EXPECT_EQ(std::memcmp(&plain_loss, &cached_loss, sizeof(float)), 0)
        << c.name;
    EXPECT_EQ(net.DecodeBatch(batch, phi, valid_tags),
              net.crf()->ViterbiBatch(cached, batch.lengths, &valid_tags))
        << c.name;
  }
}

// ----- graph size ----------------------------------------------------------

TEST_F(PrefixCacheTest, SupportLossGraphSizeDoesNotGrowWithSentenceLength) {
  // The CRF's log-partition is one op node, so one φ-step support loss on a
  // FiLM backbone builds the same graph whatever the sentence length: the same
  // four lanes (two lane runs, a one-token lane among them) at Lmax 5 and 40.
  util::Rng init(0xE55);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  const std::vector<bool> valid_tags = text::ValidTagMask(5, net.config().max_tags);
  auto graph_size = [&](int64_t max_len) {
    util::Rng rng(0x9E05);
    std::vector<models::EncodedSentence> support;
    for (int64_t len : {max_len, max_len - 1, int64_t{1}, int64_t{2}}) {
      support.push_back(RandomSentence(&rng, len, valid_tags));
    }
    models::CachedPrefix prefix;
    {
      tensor::EvalMode eval;
      prefix = net.EncodePrefix(models::PackBatch(support));
    }
    EXPECT_EQ(prefix.runs.size(), 2u);
    Tensor phi = net.ZeroContext();
    return tensor::autodiff::GraphSize(net.BatchLossFromPrefix(prefix, phi, valid_tags));
  };
  EXPECT_EQ(graph_size(5), graph_size(40));
}

TEST_F(PrefixCacheTest, TrainingLossGraphSizeDoesNotGrowWithSentenceLength) {
  // Each BiGRU direction of each lane run is one recurrence op, so a
  // training-mode loss (dropout on: the BiGRU is in the graph, not a cached
  // prefix) builds the same graph at Lmax 5 and 40, with the same four lanes
  // in the same two lane runs.
  util::Rng init(0xE56);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm), &init);
  net.SetTraining(true);
  ASSERT_FALSE(net.CanCachePrefix());
  const std::vector<bool> valid_tags = text::ValidTagMask(5, net.config().max_tags);
  auto graph_size = [&](int64_t max_len) {
    util::Rng rng(0x9E06);
    std::vector<models::EncodedSentence> support;
    for (int64_t len : {max_len, max_len - 1, int64_t{1}, int64_t{2}}) {
      support.push_back(RandomSentence(&rng, len, valid_tags));
    }
    const models::EncodedBatch batch = models::PackBatch(support);
    net.SetTraining(false);
    {
      tensor::EvalMode eval;
      EXPECT_EQ(net.EncodePrefix(batch).runs.size(), 2u);
    }
    net.SetTraining(true);
    net.ReseedDropout(1);
    return tensor::autodiff::GraphSize(net.BatchLoss(batch, net.ZeroContext(), valid_tags));
  };
  EXPECT_EQ(graph_size(5), graph_size(40));
}

// ----- cache invalidation --------------------------------------------------

TEST_F(PrefixCacheTest, StaleCacheUseAfterThetaChangeDies) {
  util::Rng init(0xD44);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  util::Rng rng(0x9E03);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  const models::EncodedBatch batch =
      models::PackBatch(RandomEpisode(1, &rng, valid_tags));
  Tensor phi = net.ZeroContext();

  // An optimizer step invalidates (in-place mutation bumps node versions) —
  // even a zero-gradient step, since invalidation is conservative.
  {
    models::CachedPrefix prefix = net.EncodePrefix(batch);
    std::vector<Tensor> zero_grads;
    for (Tensor* slot : net.Parameters()) {
      zero_grads.push_back(Tensor::Zeros(slot->shape()));
    }
    nn::Sgd sgd(net.Parameters(), 0.01f);
    sgd.Step(zero_grads);
    EXPECT_DEATH(net.BatchLossFromPrefix(prefix, phi, valid_tags),
                 "stale CachedPrefix");
  }

  // Direct parameter mutation invalidates every consumer.
  {
    models::CachedPrefix prefix = net.EncodePrefix(batch);
    net.Parameters()[0]->mutable_data();
    EXPECT_DEATH(net.EmissionsFromPrefix(prefix, phi), "stale CachedPrefix");
  }

  // Slot replacement (ParameterPatch) invalidates while the patch is live —
  // the slot holds a different node id — and the restore revalidates, since
  // (id, version) of every leaf is back to its build-time value.
  {
    models::CachedPrefix prefix = net.EncodePrefix(batch);
    const float before = net.BatchLossFromPrefix(prefix, phi, valid_tags).item();
    {
      std::vector<Tensor*> slots = net.Parameters();
      std::vector<Tensor> patched;
      for (Tensor* slot : slots) {
        patched.push_back(
            Tensor::FromData(slot->shape(), slot->data(), true));
      }
      nn::ParameterPatch patch(slots, patched);
      EXPECT_DEATH(net.BatchLossFromPrefix(prefix, phi, valid_tags),
                   "stale CachedPrefix");
    }
    const float after = net.BatchLossFromPrefix(prefix, phi, valid_tags).item();
    EXPECT_EQ(std::memcmp(&before, &after, sizeof(float)), 0);
  }
}

TEST_F(PrefixCacheTest, ParameterVersionTracksMutationAndIsStableOtherwise) {
  util::Rng init_a(0xE55), init_b(0xE56);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init_a);
  models::Backbone other(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init_b);
  const uint64_t v0 = net.ParameterVersion();
  EXPECT_EQ(v0, net.ParameterVersion()) << "version must be a pure read";
  net.Parameters()[3]->mutable_data();
  const uint64_t v1 = net.ParameterVersion();
  EXPECT_NE(v0, v1);
  // In-place sync changes values (and versions) but not handle identity —
  // snapshots taken before the sync must still alias the live parameters.
  std::vector<Tensor> snapshot = nn::ParameterTensors(&net);
  net.CopyParametersFrom(&other);
  EXPECT_NE(v1, net.ParameterVersion());
  std::vector<Tensor*> slots = net.Parameters();
  ASSERT_EQ(snapshot.size(), slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(snapshot[i].node(), slots[i]->node()) << "slot " << i;
    EXPECT_EQ(slots[i]->data(), other.Parameters()[i]->data()) << "slot " << i;
  }
}

// ----- dropout gating ------------------------------------------------------

TEST_F(PrefixCacheTest, TrainingDropoutGatesCachingAndFallbackIsUnchanged) {
  util::Rng init(0xF66);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  util::Rng rng(0x9E04);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  std::vector<models::EncodedSentence> support =
      RandomEpisode(2, &rng, valid_tags);
  const models::EncodedBatch batch = models::PackBatch(support);

  net.SetTraining(true);
  ASSERT_GT(net.config().dropout, 0.0f);
  EXPECT_FALSE(net.CanCachePrefix());
  EXPECT_DEATH(net.EncodePrefix(batch), "training-dropout regime");

  // A prefix built in the cacheable regime dies if consumed after the
  // backbone re-enters training — per-step masks would be silently skipped.
  net.SetTraining(false);
  EXPECT_TRUE(net.CanCachePrefix());
  models::CachedPrefix prefix = net.EncodePrefix(batch);
  net.SetTraining(true);
  Tensor phi = net.ZeroContext();
  EXPECT_DEATH(net.BatchLossFromPrefix(prefix, phi, valid_tags),
               "training-dropout regime");
  // So does serving from a snapshot whose backbone went back to training.
  AdaptedTagger tagger(&net, support, valid_tags, 3, 0.1f);
  net.SetTraining(true);
  EXPECT_DEATH(tagger.TagAll(support), "training-dropout regime");

  // With dropout on, AdaptContextOn must take the per-step fallback and
  // reproduce the pre-cache behavior exactly (masks drawn per step).
  net.ReseedDropout(11);
  Tensor fallback = Fewner::AdaptContextOn(net, support, valid_tags, 3, 0.1f,
                                           /*create_graph=*/false);
  net.ReseedDropout(11);
  AdaptTrace reference = TracedDescent(net, 3, 0.1f, [&](const Tensor& p) {
    return net.BatchLoss(batch, p, valid_tags);
  });
  ExpectBitwise(reference.phi, fallback, "training-mode fallback phi");

  // Training with dropout == 0 is cacheable: the prefix draws nothing.
  models::BackboneConfig dry =
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm);
  dry.dropout = 0.0f;
  util::Rng dry_init(0xF67);
  models::Backbone dry_net(dry, &dry_init);
  dry_net.SetTraining(true);
  EXPECT_TRUE(dry_net.CanCachePrefix());
}

// ----- create_graph: shared prefix subgraph --------------------------------

TEST_F(PrefixCacheTest, SharedPrefixMetaGradientMatchesSerialToTolerance) {
  // Serial per-step forwards vs. one shared prefix subgraph: the meta-
  // gradient w.r.t. θ must agree to tolerance (summation order at the shared
  // node's fan-in differs, so bitwise equality is not expected), and the
  // φ-chain values must agree bitwise.
  util::Rng init(0x177);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  util::Rng rng(0x9E05);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  std::vector<models::EncodedSentence> support =
      RandomEpisode(3, &rng, valid_tags);
  std::vector<models::EncodedSentence> query = RandomEpisode(7, &rng, valid_tags);
  const models::EncodedBatch support_batch = models::PackBatch(support);
  const models::EncodedBatch query_batch = models::PackBatch(query);
  std::vector<Tensor> params = nn::ParameterTensors(&net);

  auto meta_grads = [&](bool shared_prefix) {
    Tensor phi = net.ZeroContext();
    models::CachedPrefix prefix;
    if (shared_prefix) prefix = net.EncodePrefix(support_batch);  // graph mode
    for (int k = 0; k < 2; ++k) {
      Tensor loss = shared_prefix
                        ? net.BatchLossFromPrefix(prefix, phi, valid_tags)
                        : net.BatchLoss(support_batch, phi, valid_tags);
      Tensor g = Grad(loss, {phi}, /*create_graph=*/true)[0];
      phi = tensor::Sub(phi, tensor::MulScalar(g, 0.05f));
    }
    Tensor query_loss = net.BatchLoss(query_batch, phi, valid_tags);
    return std::make_pair(Grad(query_loss, params), phi.Detach());
  };

  const auto [serial, serial_phi] = meta_grads(false);
  const auto [cached, cached_phi] = meta_grads(true);
  ExpectBitwise(serial_phi, cached_phi, "create_graph phi chain");
  ASSERT_EQ(serial.size(), cached.size());
  double max_abs = 0.0;
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].shape(), cached[i].shape()) << "slot " << i;
    for (int64_t j = 0; j < serial[i].numel(); ++j) {
      max_abs = std::max(max_abs, std::abs(static_cast<double>(serial[i].at(j))));
      EXPECT_NEAR(serial[i].at(j), cached[i].at(j),
                  1e-4f + 1e-3f * std::abs(serial[i].at(j)))
          << "slot " << i << " element " << j;
    }
  }
  EXPECT_GT(max_abs, 1e-8) << "meta-gradient vanished; test is vacuous";

  // Determinism of the shared-node fan-in: repeating the cached backward
  // must reproduce every gradient bit (autodiff's fold order is fixed by
  // graph structure, not container iteration).
  const auto [repeat, repeat_phi] = meta_grads(true);
  ExpectBitwise(cached_phi, repeat_phi, "repeat phi chain");
  for (size_t i = 0; i < cached.size(); ++i) {
    ExpectBitwise(cached[i], repeat[i],
                  "repeated shared-prefix meta-grad slot " + std::to_string(i));
  }
}

TEST_F(PrefixCacheTest, SecondOrderFiniteDifferenceThroughSharedPrefix) {
  // The production inner loop (AdaptContextOn, which now builds the shared
  // prefix subgraph in this regime) must still produce the true gradient of
  // the meta-objective: central finite differences over spot-checked θ
  // elements.
  util::Rng init(0x288);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  net.SetTraining(false);
  util::Rng rng(0x9E06);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  std::vector<models::EncodedSentence> support =
      RandomEpisode(3, &rng, valid_tags);
  const models::EncodedBatch query =
      models::PackBatch(RandomEpisode(7, &rng, valid_tags));

  auto meta_loss = [&]() {
    Tensor phi = Fewner::AdaptContextOn(net, support, valid_tags, 2, 0.05f,
                                        /*create_graph=*/true);
    return net.BatchLoss(query, phi, valid_tags);
  };

  std::vector<Tensor> params = nn::ParameterTensors(&net);
  std::vector<Tensor> analytic = Grad(meta_loss(), params);
  std::vector<Tensor*> slots = net.Parameters();
  ASSERT_EQ(analytic.size(), slots.size());
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

// ----- AdaptedTagger serving -----------------------------------------------

TEST_F(PrefixCacheTest, DuplicateHeavyQueryEvalPrefixEqualsGraphPrefix) {
  // Serving runs the query forward under EvalMode, where the CharCNN
  // convolves each distinct word once; graph mode convolves every token
  // slot.  On a ragged query drawn from a six-word pool (so nearly every
  // token repeats) the two prefixes must agree bit for bit, run by run, and
  // batched tagging must equal tagging each sentence alone.
  util::Rng rng(0x9E09);
  std::vector<std::vector<int64_t>> pool;
  for (int64_t length : {1, 2, 4, 6, 8, 11}) {
    std::vector<int64_t> word;
    for (int64_t c = 0; c < length; ++c) {
      word.push_back(1 + static_cast<int64_t>(
                             rng.UniformInt(static_cast<uint64_t>(kCharVocab - 1))));
    }
    pool.push_back(std::move(word));
  }
  for (const models::Conditioning mode :
       {models::Conditioning::kFilm, models::Conditioning::kConcat}) {
    util::Rng init(0x5AB);
    models::Backbone net(SmallConfig(models::EncoderKind::kBiGru, mode), &init);
    net.SetTraining(false);
    const std::vector<bool> valid_tags =
        text::ValidTagMask(3, net.config().max_tags);
    std::vector<models::EncodedSentence> query;
    for (int64_t length : {12, 1, 2, 9, 1, 3, 12, 5}) {
      models::EncodedSentence s = RandomSentence(&rng, length, valid_tags);
      for (int64_t t = 0; t < length; ++t) {
        const size_t pick = static_cast<size_t>(rng.UniformInt(pool.size()));
        s.word_ids[static_cast<size_t>(t)] = static_cast<int64_t>(pick);
        s.char_ids[static_cast<size_t>(t)] = pool[pick];
      }
      query.push_back(std::move(s));
    }
    const models::EncodedBatch batch = models::PackBatch(query);

    models::CachedPrefix graph = net.EncodePrefix(batch);
    models::CachedPrefix eval;
    {
      tensor::EvalMode scope;
      eval = net.EncodePrefix(batch);
    }
    ASSERT_GE(graph.runs.size(), 2u) << "query batch is not multi-run";
    ASSERT_EQ(graph.runs.size(), eval.runs.size());
    for (size_t r = 0; r < graph.runs.size(); ++r) {
      ExpectBitwise(graph.runs[r].features.Detach(), eval.runs[r].features,
                    "run " + std::to_string(r) + " features");
    }

    AdaptedTagger tagger(&net, RandomEpisode(3, &rng, valid_tags), valid_tags,
                         3, 0.1f);
    const std::vector<std::vector<int64_t>> batched = tagger.TagAll(query);
    ASSERT_EQ(batched.size(), query.size());
    for (size_t i = 0; i < query.size(); ++i) {
      EXPECT_EQ(batched[i], tagger.Tag(query[i])) << "sentence " << i;
    }
  }
}

TEST_F(PrefixCacheTest, EvalPrefixKeysTokensOnWordIdAndCharIds) {
  // The eval prefix runs once per distinct (word id, char ids) token.  Words
  // are lowercased and characters are cased, and every OOV word is <unk>, so
  // one word id comes with many char sequences ("Apple"/"apple", two unknown
  // words); and, for the key's sake, one char sequence here also comes with
  // several word ids.  A key missing either half would hand a slot another
  // token's row.  At every real row, for both encoders and every
  // conditioning mode, the eval prefix must equal the graph prefix, which
  // runs every slot.
  util::Rng rng(0x9E0C);
  const auto random_chars = [&rng](int64_t length) {
    std::vector<int64_t> word;
    for (int64_t c = 0; c < length; ++c) {
      word.push_back(1 + static_cast<int64_t>(
                             rng.UniformInt(static_cast<uint64_t>(kCharVocab - 1))));
    }
    return word;
  };
  // (word id, char ids): ids 1 and 7 each come with three char sequences
  // (same length and different lengths), chars `shared` with word ids 3, 4
  // and 7.
  const std::vector<int64_t> shared = random_chars(5);
  std::vector<int64_t> shared_upper = shared;
  shared_upper[0] = shared_upper[0] % (kCharVocab - 1) + 1;  // another first char
  const std::vector<std::pair<int64_t, std::vector<int64_t>>> pool = {
      {1, random_chars(5)}, {1, random_chars(5)}, {1, random_chars(9)},
      {7, shared},          {7, shared_upper},    {7, random_chars(2)},
      {3, shared},          {4, shared},          {9, random_chars(1)}};
  for (const auto& [encoder, mode] :
       std::vector<std::pair<models::EncoderKind, models::Conditioning>>{
           {models::EncoderKind::kBiGru, models::Conditioning::kFilm},
           {models::EncoderKind::kBiGru, models::Conditioning::kNone},
           {models::EncoderKind::kBiGru, models::Conditioning::kConcat},
           {models::EncoderKind::kBiLstm, models::Conditioning::kFilm},
           {models::EncoderKind::kBiLstm, models::Conditioning::kConcat}}) {
    util::Rng init(0x5AC);
    models::BackboneConfig config = SmallConfig(encoder, mode);
    if (mode == models::Conditioning::kNone) config.context_dim = 0;
    models::Backbone net(config, &init);
    net.SetTraining(false);
    const std::vector<bool> valid_tags = text::ValidTagMask(3, config.max_tags);
    std::vector<models::EncodedSentence> query;
    for (int64_t length : {7, 9, 6, 12, 8, 10}) {  // one lane run
      models::EncodedSentence s = RandomSentence(&rng, length, valid_tags);
      for (int64_t t = 0; t < length; ++t) {
        const auto& [word, chars] = pool[rng.UniformInt(pool.size())];
        s.word_ids[static_cast<size_t>(t)] = word;
        s.char_ids[static_cast<size_t>(t)] = chars;
      }
      query.push_back(std::move(s));
    }
    const models::EncodedBatch batch = models::PackBatch(query);

    models::CachedPrefix graph = net.EncodePrefix(batch);
    models::CachedPrefix eval;
    {
      tensor::EvalMode scope;
      eval = net.EncodePrefix(batch);
    }
    ASSERT_EQ(graph.runs.size(), 1u);
    ASSERT_EQ(eval.runs.size(), 1u);
    const Tensor graph_rows = graph.runs[0].features.Detach();
    const Tensor& eval_rows = eval.runs[0].features;
    ASSERT_EQ(graph_rows.shape(), eval_rows.shape());
    const int64_t dim = graph_rows.shape().dim(2);
    for (int64_t b = 0; b < batch.batch; ++b) {
      const size_t lane = static_cast<size_t>(b * batch.max_len * dim);
      EXPECT_EQ(std::memcmp(graph_rows.data().data() + lane, eval_rows.data().data() + lane,
                            static_cast<size_t>(batch.lengths[static_cast<size_t>(b)] * dim) *
                                sizeof(float)),
                0)
          << "encoder " << static_cast<int>(encoder) << ", mode " << static_cast<int>(mode)
          << ", lane " << b;
    }
  }
}

TEST_F(PrefixCacheTest, EmptySentencesTagEmptyAndLeaveTheRestUnchanged) {
  util::Rng init(0x4AB);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  util::Rng rng(0x9E0A);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  AdaptedTagger tagger(&net, RandomEpisode(2, &rng, valid_tags), valid_tags, 3,
                       0.1f);
  const models::EncodedSentence four = RandomSentence(&rng, 4, valid_tags);
  const models::EncodedSentence seven = RandomSentence(&rng, 7, valid_tags);
  const models::EncodedSentence empty;

  const std::vector<std::vector<int64_t>> alone = tagger.TagAll({four});
  EXPECT_EQ(tagger.TagAll({four, empty}),
            (std::vector<std::vector<int64_t>>{alone[0], {}}));
  const std::vector<std::vector<int64_t>> pair = tagger.TagAll({four, seven});
  EXPECT_EQ(tagger.TagAll({empty, four, empty, seven, empty}),
            (std::vector<std::vector<int64_t>>{{}, pair[0], {}, pair[1], {}}));
  EXPECT_EQ(tagger.TagAll({empty, empty}),
            (std::vector<std::vector<int64_t>>{{}, {}}));
  EXPECT_TRUE(tagger.Tag(empty).empty());
  // Adaptation and training still reject empty input.
  EXPECT_DEATH(models::PackBatch({four, empty}), "PackBatch on empty sentence");
}

TEST_F(PrefixCacheTest, PackBatchRejectsTagsOrCharsOfTheWrongLength) {
  util::Rng init(0x4AC);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  util::Rng rng(0x9E0B);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  AdaptedTagger tagger(&net, RandomEpisode(2, &rng, valid_tags), valid_tags, 3,
                       0.1f);
  const models::EncodedSentence four = RandomSentence(&rng, 4, valid_tags);
  models::EncodedSentence untagged = RandomSentence(&rng, 5, valid_tags);
  untagged.tags.clear();
  models::EncodedSentence short_chars = RandomSentence(&rng, 3, valid_tags);
  short_chars.char_ids.pop_back();

  EXPECT_DEATH(models::PackBatch({four, untagged}),
               "PackBatch lane 1 has 0 tags for 5 words");
  EXPECT_DEATH(models::PackBatch({short_chars}),
               "PackBatch lane 0 has 2 char sequences for 3 words");
  // The serving call packs its request the same way.
  EXPECT_DEATH(tagger.TagAll({four, untagged}),
               "PackBatch lane 1 has 0 tags for 5 words");
}

TEST_F(PrefixCacheTest, ConcurrentServingFromOneSharedPrefix) {
  // One AdaptedTagger, one query set, many threads: TagAll only reads the
  // shared θ and φ* and builds each thread's prefix and suffix in that
  // thread's own arena, so every thread must reproduce the single-threaded
  // tags exactly.  Run under -DFEWNER_SANITIZE=thread in CI (tsan label).
  util::Rng init(0x4AA);
  models::Backbone net(
      SmallConfig(models::EncoderKind::kBiGru, models::Conditioning::kFilm),
      &init);
  util::Rng rng(0x9E08);
  const std::vector<bool> valid_tags = text::ValidTagMask(3, net.config().max_tags);
  std::vector<models::EncodedSentence> support =
      RandomEpisode(6, &rng, valid_tags);
  std::vector<models::EncodedSentence> query;
  for (int i = 0; i < 12; ++i) {
    query.push_back(RandomSentence(
        &rng, 1 + static_cast<int64_t>(rng.UniformInt(12)), valid_tags));
  }

  AdaptedTagger tagger(&net, support, valid_tags, 3, 0.1f);
  const std::vector<std::vector<int64_t>> expected = tagger.TagAll(query);

  constexpr int kThreads = 8;
  std::vector<std::vector<std::vector<int64_t>>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int repeat = 0; repeat < 4; ++repeat) {
        results[static_cast<size_t>(w)] = tagger.TagAll(query);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(results[static_cast<size_t>(w)], expected) << "thread " << w;
  }
}

}  // namespace
}  // namespace fewner::meta
