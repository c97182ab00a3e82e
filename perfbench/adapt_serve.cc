// adapt_serve: onboarding a new tenant.
//
// Closed loop, one client, intra-op budget 1.  One op constructs a
// meta::AdaptedTagger on a fresh 5-way support set (K is 1 or 5 from a seeded
// sequence, paper-scale backbone, 8 test-time inner steps) and TagAll()s its 6 query
// sentences.  Every support set is new, so the θ-prefix runs once per task and
// the eight graph-mode φ-suffix steps with their first-order autodiff::Grad
// dominate: this is the inner-loop workload, with little batched-encoder work.

#include "harness.h"
#include "meta/adapted_tagger.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/intraop.h"

#include <cstdio>

namespace perfbench {
namespace {

namespace meta = fewner::meta;
using tensor::Tensor;

constexpr int64_t kIntraopThreads = 1;
constexpr int64_t kGateTasks = 6;  ///< two groups: both K values
constexpr int64_t kMeasuredTasks = 80;  ///< inputs of one round (see OpLog)

const OpNames kNames = {"tasks_per_s", "tasks/s", "task_p50_ms", "task_tail_ms"};

struct Served {
  Tensor phi;
  std::vector<std::vector<int64_t>> tags;
};

/// The op: the library's own adapt-then-serve path.
Served Serve(models::Backbone* net, const models::EncodedEpisode& task) {
  meta::AdaptedTagger tagger(net, task.support, task.valid_tags, kTestInnerSteps,
                             kInnerLr);
  Served out;
  out.tags = tagger.TagAll(task.query);
  out.phi = tagger.phi();
  return out;
}

/// The uncached reference the gate compares against: one full
/// Backbone::BatchLoss forward per inner step, then DecodeBatch.
Served ServeUncached(const models::Backbone& net, const models::EncodedEpisode& task) {
  const models::EncodedBatch support = models::PackBatch(task.support);
  Tensor phi = net.ZeroContext();
  for (int64_t k = 0; k < kTestInnerSteps; ++k) {
    Tensor loss = net.BatchLoss(support, phi, task.valid_tags);
    Tensor grad = tensor::autodiff::Grad(loss, {phi})[0];
    phi = InnerStep(phi, grad, kInnerLr, /*create_graph=*/false);
  }
  Served out;
  out.phi = phi.Detach();
  tensor::EvalMode eval;
  out.tags = net.DecodeBatch(models::PackBatch(task.query), out.phi, task.valid_tags);
  return out;
}

/// The op rebuilt from the public calls AdaptedTagger composes (PackBatch,
/// EncodePrefix, per-step BatchLossFromPrefix / Grad / φ update) plus the
/// rebuilt TagAll, one span per call.
Served TracedServe(models::Backbone* net, const models::EncodedEpisode& task,
                   Tracer* tracer, TraceCounters* counters) {
  Scope op(tracer, Layer::kOp);
  ArenaWindow arena(counters);
  models::CachedPrefix prefix;
  {
    tensor::EvalMode eval;
    models::EncodedBatch support;
    {
      Scope span(tracer, Layer::kModelsPack);
      support = models::PackBatch(task.support);
    }
    Scope span(tracer, Layer::kModelsPrefix);
    prefix = net->EncodePrefix(support);
  }
  RecordPrefix(prefix, counters);
  Tensor phi;
  {
    Scope adapt(tracer, Layer::kMetaAdapt);
    phi = net->ZeroContext();
    for (int64_t k = 0; k < kTestInnerSteps; ++k) {
      Tensor loss;
      {
        Scope span(tracer, Layer::kModelsSuffixLoss);
        loss = net->BatchLossFromPrefix(prefix, phi, task.valid_tags);
      }
      Tensor grad;
      {
        Scope span(tracer, Layer::kTensorInnerGrad);
        grad = tensor::autodiff::Grad(loss, {phi})[0];
      }
      phi = InnerStep(phi, grad, kInnerLr, /*create_graph=*/false);
    }
  }
  Served out;
  out.phi = phi.Detach();
  out.tags = TracedTagAll(net, task.query, out.phi, task.valid_tags, tracer, counters);
  return out;
}

}  // namespace

Result RunAdaptServe(const Options& options) {
  const tensor::ParallelismBudget budget(kIntraopThreads);
  Result result;
  std::unique_ptr<ServingModel> model;
  int setup_reps = 0;
  const double setup_s =
      FastestSetupSeconds<ServingModel>(BuildServingModel, &model, &setup_reps);
  models::Backbone* net = model->net.get();
  RecordEnvironment(options, net->config(), 1, kIntraopThreads, &result);
  result.Env("n_way", kNWay);
  result.Env("shots", "\"1,1,5 per group of three, seeded order\"");
  result.Env("query_size", kQuerySize);
  result.Env("inner_steps", kTestInnerSteps);
  result.Env("setup_reps", setup_reps);

  const TaskStream tasks(&model->world, model->encoder.get(), options.seed);
  // Correctness gate, before any timing: φ* and tags bitwise-equal to the
  // uncached reference, and (traced run) to the rebuilt op.
  for (int64_t i = 0; i < kGateTasks; ++i) {
    const models::EncodedEpisode task = tasks.Task(i);
    const Served real = Serve(net, task);
    const Served reference = ServeUncached(*net, task);
    bool ok = SameBits(real.phi, reference.phi) && real.tags == reference.tags;
    if (options.trace) {
      Tracer scratch;
      TraceCounters counters;
      const Served rebuilt = TracedServe(net, task, &scratch, &counters);
      ok = ok && SameBits(rebuilt.phi, real.phi) && rebuilt.tags == real.tags;
    }
    result.attempted += 1;
    if (!ok) {
      result.failed += 1;
      std::fprintf(stderr, "gate mismatch on task %lld (K=%lld)\n",
                   static_cast<long long>(i), static_cast<long long>(tasks.Shots(i)));
    }
  }
  result.Env("gate_tasks", kGateTasks);

  // The measured tasks follow the gate's in the stream; they are sampled and
  // encoded client-side, before timing.
  std::vector<models::EncodedEpisode> measured;
  measured.reserve(kMeasuredTasks);
  for (int64_t i = 0; i < kMeasuredTasks; ++i) measured.push_back(tasks.Task(kGateTasks + i));
  result.Env("measured_tasks", kMeasuredTasks);
  const auto check = [](const models::EncodedEpisode* task,
                        const std::vector<std::vector<int64_t>>& tags) -> int64_t {
    return WellFormedTags(tags, task->query, task->valid_tags) ? 1 : -1;
  };
  const auto serve = [&](const models::EncodedEpisode* task) {
    return Serve(net, *task).tags;
  };
  std::vector<const models::EncodedEpisode*> inputs;
  if (!options.trace) {
    for (const models::EncodedEpisode& task : measured) inputs.push_back(&task);
    const OpLog log = RoundRobin(options.seconds, inputs, serve, check, &result);
    AddEndToEnd(log, setup_s, kNames, &result);
    return result;
  }
  // Every task is served untraced, then traced, so the overhead comparison
  // sees the same machine states on both sides.
  for (const models::EncodedEpisode& task : measured) {
    inputs.push_back(&task);
    inputs.push_back(&task);
  }
  Tracer tracer;
  TraceCounters counters;
  int64_t op = 0;
  const OpLog both = RoundRobin(
      options.seconds, inputs,
      [&](const models::EncodedEpisode* task) {
        if (op++ % 2 == 0) return serve(task);
        tracer.BeginOp();
        return TracedServe(net, *task, &tracer, &counters).tags;
      },
      check, &result);
  result.spans = tracer.spans();
  AddPerLayer(result.spans, counters, &result);
  ReportOverhead(EveryOther(both, 0), EveryOther(both, 1), kNames, &result);
  return result;
}

}  // namespace perfbench
