// Serial-vs-parallel correctness suite for episode-parallel meta-batch
// training (meta/parallel.h).  The determinism contract under test: training
// any method with 1, 2, or 8 worker threads produces BIT-IDENTICAL parameters
// — the parallel path is the serial path, only faster.  Also checks that the
// parallel second-order meta-gradient is a real gradient (finite differences)
// and that the double-precision reduction buffers match bitwise.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>

#include "data/synthetic.h"
#include "meta/fewner.h"
#include "meta/finetune.h"
#include "meta/grad_accumulator.h"
#include "meta/maml.h"
#include "meta/matching_net.h"
#include "meta/parallel.h"
#include "meta/protonet.h"
#include "meta/reptile.h"
#include "meta/snail.h"
#include "tensor/autodiff.h"
#include "tensor/intraop.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/thread_pool.h"

namespace fewner::meta {
namespace {

using tensor::Tensor;

/// Same tiny world as MetaTest, but meta_batch 8 so a parallel run actually
/// spreads tasks across workers.
class ParallelTest : public ::testing::Test {
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
    // Dropout ON: the parity contract must hold for stochastic forward passes
    // too (per-task dropout streams are re-forked from the episode id).
    config_.dropout = 0.1f;

    encoder_ = std::make_unique<models::EpisodeEncoder>(&words_, &chars_,
                                                        config_.max_tags);
    sampler_ = std::make_unique<data::EpisodeSampler>(
        &corpus_, corpus_.entity_types, 3, 1, 4, 17);

    train_config_.iterations = 2;
    train_config_.meta_batch = 8;
    train_config_.train_query_size = 2;
  }

  /// `run(threads)` trains a fresh identically-seeded method with `threads`
  /// workers and returns its final parameter values.  All three thread counts
  /// must produce exactly equal floats (0 ULP).
  void CheckThreadCountParity(
      const std::function<std::vector<std::vector<float>>(int64_t)>& run) {
    const std::vector<std::vector<float>> serial = run(1);
    const std::vector<std::vector<float>> two = run(2);
    const std::vector<std::vector<float>> eight = run(8);
    ASSERT_EQ(serial.size(), two.size());
    ASSERT_EQ(serial.size(), eight.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], two[i]) << "slot " << i << " differs at 2 threads";
      EXPECT_EQ(serial[i], eight[i]) << "slot " << i << " differs at 8 threads";
    }
  }

  TrainConfig WithThreads(int64_t threads) const {
    TrainConfig config = train_config_;
    config.num_threads = threads;
    return config;
  }

  data::Corpus corpus_;
  text::Vocab words_, chars_;
  models::BackboneConfig config_;
  std::unique_ptr<models::EpisodeEncoder> encoder_;
  std::unique_ptr<data::EpisodeSampler> sampler_;
  TrainConfig train_config_;
};

// --------------------------------------------- per-method gradient parity

TEST_F(ParallelTest, FewnerParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    Fewner method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.backbone());
  });
}

TEST_F(ParallelTest, MamlParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    Maml method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.backbone());
  });
}

TEST_F(ParallelTest, FirstOrderMamlParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    Maml method(config_, &rng);
    TrainConfig config = WithThreads(threads);
    config.first_order = true;
    method.Train(*sampler_, *encoder_, config);
    return nn::SnapshotParameterValues(method.backbone());
  });
}

TEST_F(ParallelTest, ReptileParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    Reptile method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.backbone());
  });
}

TEST_F(ParallelTest, ProtoNetParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    ProtoNet method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.backbone());
  });
}

TEST_F(ParallelTest, MatchingNetParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    MatchingNet method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.backbone());
  });
}

TEST_F(ParallelTest, SnailParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    Snail method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.model());
  });
}

TEST_F(ParallelTest, FineTuneParityAcrossThreadCounts) {
  CheckThreadCountParity([&](int64_t threads) {
    util::Rng rng(1);
    FineTune method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(threads));
    return nn::SnapshotParameterValues(method.backbone());
  });
}

// ------------------------------------------------ reduction-level parity

TEST_F(ParallelTest, AccumulatorBuffersBitIdenticalAcrossThreadCounts) {
  // Compare the raw double reduction buffers (pre-scaling) across thread
  // counts, not just the final parameters: this pins down WHERE determinism
  // lives — in the ordered double-precision Add sequence.
  models::BackboneConfig plain = config_;
  plain.conditioning = models::Conditioning::kNone;
  plain.context_dim = 0;
  const int64_t kTasks = 8;
  auto run = [&](int64_t threads) {
    util::Rng rng(7);
    models::Backbone master(plain, &rng);
    master.SetTraining(true);
    ParallelMetaBatch batch = BackboneMetaBatch(threads, &master);
    GradAccumulator accumulator(nn::ParameterTensors(&master));
    const double loss_sum = batch.Run(
        kTasks,
        [&](int64_t t, nn::Module* model,
            const std::vector<Tensor>& replica_params,
            std::vector<Tensor>* grads) -> double {
          auto* net = static_cast<models::Backbone*>(model);
          models::EncodedEpisode enc = PrepareTrainingTask(
              *sampler_, *encoder_, train_config_, static_cast<uint64_t>(t), net);
          Tensor loss = net->BatchLoss(models::PackBatch(enc.support), Tensor(),
                                       enc.valid_tags);
          *grads = tensor::autodiff::Grad(loss, replica_params);
          return loss.item();
        },
        &accumulator);
    return std::make_pair(accumulator.buffers(), loss_sum);
  };
  const auto serial = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_EQ(serial.first, two.first);
  EXPECT_EQ(serial.first, eight.first);
  EXPECT_EQ(serial.second, two.second);
  EXPECT_EQ(serial.second, eight.second);
  // And the buffers are not trivially zero.
  double magnitude = 0.0;
  for (const auto& buffer : serial.first) {
    for (double v : buffer) magnitude += std::abs(v);
  }
  EXPECT_GT(magnitude, 1e-6);
}

// ------------------------------------- second-order gradient, threaded

TEST_F(ParallelTest, SecondOrderMetaGradientMatchesFiniteDifferenceThreaded) {
  // The FEWNER meta-gradient differentiates the query loss through the inner
  // φ updates (create_graph).  Computed on 8 worker replicas and reduced, it
  // must still be the true gradient of the (serially evaluated) meta-loss:
  // the directional derivative along the normalized meta-gradient equals its
  // norm.  Dropout off so the objective is deterministic and smooth.
  models::BackboneConfig smooth = config_;
  smooth.dropout = 0.0f;
  util::Rng rng(3);
  Fewner fewner(smooth, &rng);
  models::Backbone* master = fewner.backbone();
  master->SetTraining(true);

  const int64_t kSteps = 2;
  const float kInnerLr = 0.05f;
  TrainConfig bounds = train_config_;
  // Small support sets keep the summed support loss's φ-gradient below the
  // clip threshold (the clip factor is intentionally detached from the graph,
  // so a clipping task would perturb the finite-difference comparison).
  bounds.train_support_cap = 2;

  // Select tasks that sit safely on the clip-inactive branch.
  std::vector<uint64_t> tasks;
  for (uint64_t candidate = 0; candidate < 16 && tasks.size() < 4; ++candidate) {
    models::EncodedEpisode enc = PrepareTrainingTask(*sampler_, *encoder_,
                                                     bounds, candidate, master);
    Tensor phi = master->ZeroContext();
    Tensor loss =
        master->BatchLoss(models::PackBatch(enc.support), phi, enc.valid_tags);
    Tensor grad = tensor::autodiff::Grad(loss, {phi})[0];
    double norm_sq = 0.0;
    for (float v : grad.data()) norm_sq += static_cast<double>(v) * v;
    if (std::sqrt(norm_sq) < 4.0) tasks.push_back(candidate);
  }
  ASSERT_GE(tasks.size(), 2u) << "not enough clip-inactive tasks at this seed";
  const auto num_tasks = static_cast<double>(tasks.size());

  auto meta_loss = [&]() -> double {
    double total = 0.0;
    for (uint64_t task : tasks) {
      models::EncodedEpisode enc =
          PrepareTrainingTask(*sampler_, *encoder_, bounds, task, master);
      Tensor phi =
          Fewner::AdaptContextOn(*master, enc.support, enc.valid_tags, kSteps,
                                 kInnerLr, /*create_graph=*/false);
      total += master->BatchLoss(models::PackBatch(enc.query), phi, enc.valid_tags)
                   .item();
    }
    return total / num_tasks;
  };

  // Meta-gradient via the 8-thread parallel path.
  ParallelMetaBatch batch = BackboneMetaBatch(8, master);
  GradAccumulator accumulator(nn::ParameterTensors(master));
  batch.Run(
      static_cast<int64_t>(tasks.size()),
      [&](int64_t t, nn::Module* model,
          const std::vector<Tensor>& replica_params,
          std::vector<Tensor>* grads) -> double {
        auto* net = static_cast<models::Backbone*>(model);
        models::EncodedEpisode enc = PrepareTrainingTask(
            *sampler_, *encoder_, bounds, tasks[static_cast<size_t>(t)], net);
        Tensor phi =
            Fewner::AdaptContextOn(*net, enc.support, enc.valid_tags, kSteps,
                                   kInnerLr, /*create_graph=*/true);
        Tensor loss =
            net->BatchLoss(models::PackBatch(enc.query), phi, enc.valid_tags);
        *grads = tensor::autodiff::Grad(loss, replica_params);
        return loss.item();
      },
      &accumulator);
  std::vector<Tensor> grad = accumulator.Finish(1.0 / num_tasks);

  double norm_sq = 0.0;
  for (const Tensor& g : grad) {
    for (float v : g.data()) norm_sq += static_cast<double>(v) * v;
  }
  const double norm = std::sqrt(norm_sq);
  ASSERT_GT(norm, 1e-5);

  // Central difference along d = g / ‖g‖: (L(θ+hd) − L(θ−hd)) / 2h ≈ ‖g‖.
  std::vector<Tensor*> slots = master->Parameters();
  auto shift = [&](double step) {
    for (size_t i = 0; i < slots.size(); ++i) {
      std::vector<float>* values = slots[i]->mutable_data();
      const auto& g = grad[i].data();
      for (size_t j = 0; j < values->size(); ++j) {
        (*values)[j] += static_cast<float>(step * g[j] / norm);
      }
    }
  };
  const double h = 5e-3;
  shift(+h);
  const double up = meta_loss();
  shift(-2.0 * h);
  const double down = meta_loss();
  shift(+h);  // restore θ

  const double fd = (up - down) / (2.0 * h);
  EXPECT_NEAR(fd, norm, 0.08 * norm + 1e-4)
      << "parallel second-order meta-gradient disagrees with finite "
         "differences";
}

// ------------------------------------------------- thread-count plumbing

TEST_F(ParallelTest, ResolveThreadCountHonorsRequestAndEnvironment) {
  EXPECT_EQ(ParallelMetaBatch::ResolveThreadCount(3), 3);
  EXPECT_EQ(ParallelMetaBatch::ResolveThreadCount(1), 1);

  unsetenv("FEWNER_THREADS");
  EXPECT_EQ(ParallelMetaBatch::ResolveThreadCount(0), 1);
  setenv("FEWNER_THREADS", "5", 1);
  EXPECT_EQ(ParallelMetaBatch::ResolveThreadCount(0), 5);
  setenv("FEWNER_THREADS", "0", 1);
  EXPECT_GE(ParallelMetaBatch::ResolveThreadCount(0), 1);  // all hardware threads
  setenv("FEWNER_THREADS", "not-a-number", 1);
  EXPECT_EQ(ParallelMetaBatch::ResolveThreadCount(0), 1);
  unsetenv("FEWNER_THREADS");
}

TEST_F(ParallelTest, TrainingBitwiseInvariantUnderAmbientIntraOpBudget) {
  // Nesting contract (tensor/intraop.h): pooled episode workers pin their
  // GEMMs to a serial intra-op budget, and whatever ambient budget surrounds
  // Train() must never change trained parameters.  Serial trainer under
  // budgets 1 and 4, and a 2-worker trainer nested under an ambient budget of
  // 4, must all land on bit-identical floats.  Under -DFEWNER_SANITIZE=thread
  // this also exercises episode workers coexisting with the intra-op slab
  // pool in one process.
  auto run = [&](int64_t workers, int64_t intraop) {
    tensor::ParallelismBudget budget(intraop);
    util::Rng rng(1);
    Fewner method(config_, &rng);
    method.Train(*sampler_, *encoder_, WithThreads(workers));
    return nn::SnapshotParameterValues(method.backbone());
  };
  const std::vector<std::vector<float>> reference = run(1, 1);
  EXPECT_EQ(reference, run(1, 4)) << "serial trainer under ambient budget 4";
  EXPECT_EQ(reference, run(2, 4)) << "2 workers nested under ambient budget 4";
}

TEST_F(ParallelTest, MoreWorkersThanTasksIsSafe) {
  // 8 threads, 2 tasks: the pool must not deadlock or touch unused replicas.
  util::Rng rng(1);
  Fewner method(config_, &rng);
  TrainConfig config = WithThreads(8);
  config.meta_batch = 2;
  method.Train(*sampler_, *encoder_, config);

  util::Rng serial_rng(1);
  Fewner serial(config_, &serial_rng);
  TrainConfig serial_config = config;
  serial_config.num_threads = 1;
  serial.Train(*sampler_, *encoder_, serial_config);

  const auto a = nn::SnapshotParameterValues(method.backbone());
  const auto b = nn::SnapshotParameterValues(serial.backbone());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace fewner::meta
