// Reproduces §4.5.2 (time-consuming analysis) with google-benchmark: the cost
// of one inner loop during training (second-order graph), a full outer-loop
// update over a meta batch, one test-time inner loop (first-order, φ only),
// evaluating a task, and — for contrast — MAML's full-network test-time inner
// loop.  Also prints |θ| vs |φ| to substantiate the paper's efficiency claim.
//
// Absolute numbers are CPU-bound and differ from the paper's V100; the claims
// that transfer are relative: FEWNER's test-time adaptation updates a small
// set of parameters, needs no second-order computation, and is much cheaper
// per step than MAML's.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "data/datasets.h"
#include "eval/experiment.h"
#include "meta/fewner.h"
#include "meta/maml.h"
#include "meta/parallel.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace {

using namespace fewner;  // NOLINT: bench brevity

/// Shared fixture: a small trained-ish world reused across benchmarks.
struct World {
  World() {
    util::SetLogLevel(util::LogLevel::kWarning);
    eval::ExperimentConfig config;
    config.data_scale = 0.02;
    config.eval_episodes = 1;
    // Timing does not need converged models; a couple of outer iterations
    // produce representative graph sizes.
    config.train.iterations = 2;
    eval::Scenario scenario =
        eval::MakeIntraDomainScenario(data::kNne, config.data_scale, 3);
    runner = std::make_unique<eval::ExperimentRunner>(std::move(scenario), config);

    // Build through the runner so vocab sizes are consistent with the corpus.
    auto fewner_generic = runner->CreateTrained(eval::MethodId::kFewner);
    fewner_method.reset(static_cast<meta::Fewner*>(fewner_generic.release()));
    auto maml_generic = runner->CreateTrained(eval::MethodId::kMaml);
    maml_method.reset(static_cast<meta::Maml*>(maml_generic.release()));
    episode_1shot = Encode(1);
    episode_5shot = Encode(5);
  }

  models::EncodedEpisode Encode(int64_t k_shot) {
    data::EpisodeSampler sampler(&runner->scenario().target,
                                 runner->scenario().target_types, 5, k_shot, 4,
                                 777);
    data::Episode episode = sampler.Sample(0);
    if (episode.query.size() > 4) episode.query.resize(4);
    return runner->encoder().Encode(episode);
  }

  std::unique_ptr<eval::ExperimentRunner> runner;
  std::unique_ptr<meta::Fewner> fewner_method;
  std::unique_ptr<meta::Maml> maml_method;
  models::EncodedEpisode episode_1shot;
  models::EncodedEpisode episode_5shot;
};

World& TheWorld() {
  static World world;
  return world;
}

/// Graph nodes of one support loss as Fewner::AdaptContextOn builds it: the
/// θ-prefix in the graph for training, graph-free at test time.  Reported as
/// the `graph_nodes` counter next to the inner-loop times.
double SupportLossGraphNodes(const models::Backbone& net,
                             const models::EncodedEpisode& episode, bool create_graph) {
  const models::EncodedBatch packed = models::PackBatch(episode.support);
  const tensor::Tensor phi = net.ZeroContext();
  if (!net.CanCachePrefix()) {
    return static_cast<double>(tensor::autodiff::GraphSize(
        net.BatchLoss(packed, phi, episode.valid_tags)));
  }
  models::CachedPrefix prefix;
  if (create_graph) {
    prefix = net.EncodePrefix(packed);
  } else {
    tensor::EvalMode eval;
    prefix = net.EncodePrefix(packed);
  }
  return static_cast<double>(tensor::autodiff::GraphSize(
      net.BatchLossFromPrefix(prefix, phi, episode.valid_tags)));
}

void BM_FewnerInnerLoopTraining(benchmark::State& state) {
  World& world = TheWorld();
  const models::EncodedEpisode& episode =
      state.range(0) == 1 ? world.episode_1shot : world.episode_5shot;
  state.counters["graph_nodes"] = SupportLossGraphNodes(
      *world.fewner_method->backbone(), episode, /*create_graph=*/true);
  for (auto _ : state) {
    tensor::Tensor phi = meta::Fewner::AdaptContextOn(
        *world.fewner_method->backbone(), episode.support, episode.valid_tags,
        /*steps=*/1, 0.1f, /*create_graph=*/true);
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_FewnerInnerLoopTraining)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_FewnerInnerLoopAdaptation(benchmark::State& state) {
  World& world = TheWorld();
  const models::EncodedEpisode& episode =
      state.range(0) == 1 ? world.episode_1shot : world.episode_5shot;
  state.counters["graph_nodes"] = SupportLossGraphNodes(
      *world.fewner_method->backbone(), episode, /*create_graph=*/false);
  for (auto _ : state) {
    tensor::Tensor phi = meta::Fewner::AdaptContextOn(
        *world.fewner_method->backbone(), episode.support, episode.valid_tags,
        /*steps=*/1, 0.1f, /*create_graph=*/false);
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_FewnerInnerLoopAdaptation)
    ->Arg(1)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_MamlInnerLoopAdaptation(benchmark::State& state) {
  World& world = TheWorld();
  const models::EncodedEpisode& episode =
      state.range(0) == 1 ? world.episode_1shot : world.episode_5shot;
  for (auto _ : state) {
    auto adapted = meta::Maml::InnerAdaptOn(
        world.maml_method->backbone(), episode.support, episode.valid_tags,
        /*steps=*/1, 0.1f, /*create_graph=*/false);
    benchmark::DoNotOptimize(adapted);
  }
}
BENCHMARK(BM_MamlInnerLoopAdaptation)
    ->Arg(1)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_FewnerEvaluateTask(benchmark::State& state) {
  World& world = TheWorld();
  const models::EncodedEpisode& episode =
      state.range(0) == 1 ? world.episode_1shot : world.episode_5shot;
  for (auto _ : state) {
    auto predictions = world.fewner_method->AdaptAndPredict(episode);
    benchmark::DoNotOptimize(predictions);
  }
}
BENCHMARK(BM_FewnerEvaluateTask)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

/// Graph nodes of one training task's query loss as Fewner::Train builds it
/// (dropout on, second-order inner steps): the graph its outer meta-gradient
/// walks.  Reported as the `graph_nodes` counter of the outer-loop batch.
double QueryLossGraphNodes(World& world, const meta::TrainConfig& config) {
  models::Backbone* net = world.fewner_method->backbone();
  net->SetTraining(true);
  const models::EncodedEpisode enc = meta::PrepareTrainingTask(
      world.runner->train_sampler(), world.runner->encoder(), config, 0, net);
  const tensor::Tensor phi = meta::Fewner::AdaptContextOn(
      *net, enc.support, enc.valid_tags, config.inner_steps_train, config.inner_lr,
      /*create_graph=*/true);
  return static_cast<double>(tensor::autodiff::GraphSize(
      net->BatchLoss(models::PackBatch(enc.query), phi, enc.valid_tags)));
}

void BM_FewnerOuterLoopBatch(benchmark::State& state) {
  World& world = TheWorld();
  meta::TrainConfig config;
  config.iterations = 1;
  config.meta_batch = 8;
  state.counters["graph_nodes"] = QueryLossGraphNodes(world, config);
  for (auto _ : state) {
    world.fewner_method->Train(world.runner->train_sampler(),
                               world.runner->encoder(), config);
  }
}
BENCHMARK(BM_FewnerOuterLoopBatch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  World& world = TheWorld();
  const int64_t theta = world.fewner_method->backbone()->ParameterCount();
  const int64_t phi = world.fewner_method->backbone()->config().context_dim;
  std::cout << "Parameter counts: |theta| = " << theta << ", |phi| = " << phi
            << "  (adaptation updates " << (100.0 * phi / (theta + phi))
            << "% of parameters)\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
