// meta_train: the write path.
//
// One op is one outer iteration of meta::Fewner::Train on the CPU-scale
// backbone (hidden 48, dropout 0.3): meta-batch 8, 2 second-order inner steps,
// 2 episode workers.  θ changes every iteration and dropout forbids the prefix
// cache, so every inner step runs the full graph-mode forward; second-order
// Grad, the NT/TN backward GEMMs, the ParallelMetaBatch reduction and Adam all
// run.  It shares the serving workloads' backbone and kernels but uses them
// differently, so a forward-only gain that costs the backward shows up here.

#include <cmath>
#include <cstdio>

#include "harness.h"
#include "meta/fewner.h"
#include "meta/grad_accumulator.h"
#include "meta/parallel.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/intraop.h"
#include "text/bio.h"

namespace perfbench {
namespace {

namespace meta = fewner::meta;
using tensor::Tensor;

constexpr int64_t kEpisodeThreads = 2;
constexpr int64_t kIntraopThreads = 1;  ///< episode workers own the cores
constexpr int64_t kShots = 1;
constexpr int64_t kGateIterations = 2;
/// Measured iterations of one round (see OpLog).  Episodes are a function of
/// the iteration index and θ's init seed is fixed, so every round that trains
/// a fresh θ repeats the first round's iterations op for op.
constexpr int64_t kRoundIterations = 40;

const OpNames kNames = {"meta_tasks_per_s", "tasks/s", "iteration_p50_ms",
                        "iteration_tail_ms"};

meta::TrainConfig TrainingConfig() {
  meta::TrainConfig config;
  config.meta_batch = 8;
  config.inner_steps_train = 2;
  config.first_order = false;
  config.num_threads = kEpisodeThreads;
  return config;
}

struct Trainer {
  World world;
  std::unique_ptr<models::EpisodeEncoder> encoder;
  std::unique_ptr<data::EpisodeSampler> sampler;
  std::unique_ptr<meta::Fewner> method;
};

std::unique_ptr<meta::Fewner> FreshMethod(const World& world) {
  util::Rng rng(kThetaSeed);
  return std::make_unique<meta::Fewner>(CpuBackbone(world), &rng);
}

std::unique_ptr<Trainer> BuildTrainer(uint64_t seed) {
  auto trainer = std::make_unique<Trainer>();
  trainer->world = BuildWorld();
  trainer->encoder = std::make_unique<models::EpisodeEncoder>(
      &trainer->world.words, &trainer->world.chars, text::NumTags(kNWay));
  trainer->sampler = std::make_unique<data::EpisodeSampler>(
      &trainer->world.corpus, trainer->world.corpus.entity_types, kNWay, kShots,
      kQuerySize, MetaTrainSamplerSeed(seed));
  trainer->method = FreshMethod(trainer->world);
  return trainer;
}

std::vector<Tensor> Theta(meta::Fewner* method) {
  return nn::ParameterTensors(method->backbone());
}

bool SameTheta(meta::Fewner* a, meta::Fewner* b) {
  const std::vector<Tensor> x = Theta(a);
  const std::vector<Tensor> y = Theta(b);
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!SameBits(x[i], y[i])) return false;
  }
  return true;
}

bool FiniteTheta(meta::Fewner* method) {
  for (const Tensor& p : Theta(method)) {
    for (float v : p.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

/// Thrown from the iteration callback to end a Train() run at the deadline.
struct StopTraining {};

/// Untraced op: Fewner::Train itself on `method`, kRoundIterations + 1 outer
/// iterations or until `deadline`, each timed from its iteration callback
/// into `*log` as input (iteration - 1).  Iteration 0 also builds the episode
/// workers' replicas and pool, so it is a warm-up, not a sample.
void TrainRound(const Trainer& trainer, meta::Fewner* method,
                Clock::time_point deadline, OpLog* log) {
  meta::TrainConfig config = TrainingConfig();
  config.iterations = kRoundIterations + 1;
  config.callback_every = 1;
  Clock::time_point last = Clock::now();
  config.iteration_callback = [&](int64_t iteration) {
    const Clock::time_point now = Clock::now();
    if (iteration > 0) {
      log->Record(static_cast<size_t>(iteration - 1), MsBetween(last, now),
                  config.meta_batch);
      log->SampleRss(kRssRounds * kRoundIterations, /*run_ended=*/false);
    }
    last = Clock::now();
    if (now >= deadline) throw StopTraining{};
  };
  try {
    method->Train(*trainer.sampler, *trainer.encoder, config);
    log->rounds += 1;
  } catch (const StopTraining&) {
  }
}

/// Fewner::Train rebuilt from its public pieces — PrepareTrainingTask's calls,
/// the inner loop on per-step BatchLoss, ParallelMetaBatch, GradAccumulator,
/// ClipGradNorm and Adam — with one span per call.  Runs `iterations` outer
/// iterations or until `deadline`, whichever comes first, recording into
/// `*log` as TrainRound does.  Iteration 0 is a warm-up; its spans and counts
/// go to a scratch tracer, so the per-layer figures cover the logged
/// iterations only.
/// `*finite` turns false on a non-finite task loss.
void TracedTrain(const Trainer& trainer, meta::Fewner* method, int64_t iterations,
                 Clock::time_point deadline, Tracer* measured_tracer,
                 TraceCounters* measured_counters, bool* finite, OpLog* log) {
  const meta::TrainConfig config = TrainingConfig();
  models::Backbone* master = method->backbone();
  master->SetTraining(true);
  nn::Adam optimizer(master->Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  meta::ParallelMetaBatch batch = meta::BackboneMetaBatch(config.num_threads, master);
  measured_counters->workers = std::min(batch.num_threads(), config.meta_batch);
  const std::vector<Tensor> params = nn::ParameterTensors(master);
  Tracer warmup_tracer;
  TraceCounters warmup_counters;
  int64_t tasks_seen = 0;
  for (int64_t it = 0; it < iterations && Clock::now() < deadline; ++it) {
    Tracer* const tracer = it == 0 ? &warmup_tracer : measured_tracer;
    TraceCounters* const counters = it == 0 ? &warmup_counters : measured_counters;
    const Clock::time_point begin = Clock::now();
    tracer->BeginOp();
    Scope op(tracer, Layer::kOp);
    const uint64_t base = static_cast<uint64_t>(it * config.meta_batch);
    meta::GradAccumulator accumulator(params);
    double loss_sum = 0.0;
    {
      Scope run(tracer, Layer::kMetaRun);
      const int64_t run_id = run.id();
      loss_sum = batch.Run(
          config.meta_batch,
          [&](int64_t t, nn::Module* model, const std::vector<Tensor>& replica_params,
              std::vector<Tensor>* grads) -> double {
            Scope task(tracer, Layer::kMetaTask, run_id);
            ArenaWindow arena(counters);
            auto* net = static_cast<models::Backbone*>(model);
            const uint64_t episode_id = base + static_cast<uint64_t>(t);
            data::Episode episode;
            {
              Scope span(tracer, Layer::kDataSample);
              episode = trainer.sampler->Sample(episode_id);
            }
            meta::BoundTrainingEpisode(config, &episode);
            models::EncodedEpisode enc;
            {
              Scope span(tracer, Layer::kModelsEncode);
              enc = trainer.encoder->Encode(episode);
            }
            net->ReseedDropout(episode_id);
            models::EncodedBatch support;
            {
              Scope span(tracer, Layer::kModelsPack);
              support = models::PackBatch(enc.support);
            }
            Tensor phi = net->ZeroContext();
            for (int64_t k = 0; k < config.inner_steps_train; ++k) {
              Tensor loss;
              {
                Scope span(tracer, Layer::kModelsBatchLoss);
                loss = net->BatchLoss(support, phi, enc.valid_tags);
              }
              Tensor grad;
              {
                Scope span(tracer, Layer::kTensorInnerGrad);
                grad = tensor::autodiff::Grad(loss, {phi}, /*create_graph=*/true)[0];
              }
              phi = InnerStep(phi, grad, config.inner_lr, /*create_graph=*/true);
            }
            models::EncodedBatch query;
            {
              Scope span(tracer, Layer::kModelsPack);
              query = models::PackBatch(enc.query);
            }
            Tensor query_loss;
            {
              Scope span(tracer, Layer::kModelsBatchLoss);
              query_loss = net->BatchLoss(query, phi, enc.valid_tags);
            }
            Scope span(tracer, Layer::kTensorMetaGrad);
            *grads = tensor::autodiff::Grad(query_loss, replica_params);
            return query_loss.item();
          },
          &accumulator);
    }
    if (!std::isfinite(loss_sum)) *finite = false;
    tasks_seen += config.meta_batch;
    std::vector<Tensor> grads;
    {
      Scope span(tracer, Layer::kMetaReduce);
      grads = accumulator.Finish(1.0 / static_cast<double>(config.meta_batch));
    }
    {
      Scope span(tracer, Layer::kNnOptimizer);
      nn::ClipGradNorm(&grads, config.grad_clip);
      optimizer.Step(grads);
    }
    if (tasks_seen / config.lr_decay_every !=
        (tasks_seen - config.meta_batch) / config.lr_decay_every) {
      optimizer.DecayLr(config.lr_decay);
    }
    if (it > 0) {
      log->Record(static_cast<size_t>(it - 1), MsBetween(begin, Clock::now()),
                  config.meta_batch);
    }
  }
  master->SetTraining(false);
}

}  // namespace

Result RunMetaTrain(const Options& options) {
  const tensor::ParallelismBudget budget(kIntraopThreads);
  Result result;
  std::unique_ptr<Trainer> trainer;
  int setup_reps = 0;
  const double setup_s = FastestSetupSeconds<Trainer>(
      [&] { return BuildTrainer(options.seed); }, &trainer, &setup_reps);
  const meta::TrainConfig config = TrainingConfig();
  RecordEnvironment(options, trainer->method->backbone()->config(), kEpisodeThreads,
                    kIntraopThreads, &result);
  result.Env("n_way", kNWay);
  result.Env("shots", kShots);
  result.Env("meta_batch", config.meta_batch);
  result.Env("inner_steps_train", config.inner_steps_train);
  result.Env("second_order", config.first_order ? 0 : 1);
  result.Env("train_support_cap", config.train_support_cap);
  result.Env("train_query_size", config.train_query_size);
  result.Env("setup_reps", setup_reps);

  // Correctness gate, before any timing: θ after a few iterations at 2 episode
  // workers is bitwise θ at 1 worker, and (traced run) θ of the rebuilt loop.
  {
    meta::TrainConfig gate = TrainingConfig();
    gate.iterations = kGateIterations;
    gate.num_threads = 1;
    std::unique_ptr<meta::Fewner> serial = FreshMethod(trainer->world);
    serial->Train(*trainer->sampler, *trainer->encoder, gate);
    gate.num_threads = kEpisodeThreads;
    std::unique_ptr<meta::Fewner> parallel = FreshMethod(trainer->world);
    parallel->Train(*trainer->sampler, *trainer->encoder, gate);
    bool ok = SameTheta(serial.get(), parallel.get());
    if (options.trace) {
      std::unique_ptr<meta::Fewner> rebuilt = FreshMethod(trainer->world);
      Tracer scratch;
      TraceCounters counters;
      bool finite = true;
      OpLog unused;
      TracedTrain(*trainer, rebuilt.get(), kGateIterations, Clock::time_point::max(),
                  &scratch, &counters, &finite, &unused);
      ok = ok && finite && SameTheta(rebuilt.get(), parallel.get());
    }
    result.attempted += 1;
    if (!ok) {
      result.failed += 1;
      std::fprintf(stderr, "gate mismatch: θ differs across worker counts or rebuild\n");
    }
    result.Env("gate_iterations", kGateIterations);
  }

  const auto tally = [&](const OpLog& log, bool ok) {
    result.attempted += log.attempts;
    if (!ok) result.failed += log.attempts;
  };
  // Rounds run until the deadline; the first always completes.  Each round
  // trains a fresh θ (the first uses set-up's).
  const Clock::time_point end = Deadline(options.seconds);
  if (!options.trace) {
    OpLog log;
    bool finite = true;
    for (bool first = true; first || Clock::now() < end; first = false) {
      if (!first) trainer->method = FreshMethod(trainer->world);
      TrainRound(*trainer, trainer->method.get(), first ? Clock::time_point::max() : end,
                 &log);
      finite = finite && FiniteTheta(trainer->method.get());
    }
    log.SampleRss(kRssRounds * kRoundIterations, /*run_ended=*/true);
    tally(log, finite);
    result.Env("round_iterations", kRoundIterations);
    AddEndToEnd(log, setup_s, kNames, &result);
    return result;
  }
  // An untraced Train() round and a traced-rebuild round alternate, so the
  // overhead comparison sees the same machine states on both sides.
  Tracer tracer;
  TraceCounters counters;
  bool untraced_finite = true;
  bool traced_finite = true;
  OpLog untraced;
  OpLog traced;
  for (bool first = true; first || Clock::now() < end; first = false) {
    const Clock::time_point stop = first ? Clock::time_point::max() : end;
    if (!first) trainer->method = FreshMethod(trainer->world);
    TrainRound(*trainer, trainer->method.get(), stop, &untraced);
    untraced_finite = untraced_finite && FiniteTheta(trainer->method.get());
    std::unique_ptr<meta::Fewner> rebuilt = FreshMethod(trainer->world);
    TracedTrain(*trainer, rebuilt.get(), kRoundIterations + 1, stop, &tracer, &counters,
                &traced_finite, &traced);
    traced_finite = traced_finite && FiniteTheta(rebuilt.get());
  }
  tally(untraced, untraced_finite);
  tally(traced, traced_finite);
  result.Env("round_iterations", kRoundIterations);
  result.spans = tracer.spans();
  AddPerLayer(result.spans, counters, &result);
  ReportOverhead(untraced, traced, kNames, &result);
  return result;
}

}  // namespace perfbench
