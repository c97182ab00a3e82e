// tag_stream: steady-state tagging for tenants that are already adapted.
//
// Closed loop, one client, intra-op budget 2.  Set-up adapts a pool of tenants
// (counted in setup_s); one op is one AdaptedTagger::TagAll request to a
// seeded tenant, B dealt uniformly over 1–32 in seeded order, sentences from a
// held-out pool in arrival order (not length-sorted).  No autodiff runs at
// all: the CharCNN/BiGRU θ-prefix, GEMM sharding and Viterbi dominate, and the
// mixed B and lengths expose padding and LaneRuns bucketing.  Adaptation is
// bypassed, so inner-loop changes should not move this workload.

#include "harness.h"
#include "meta/adapted_tagger.h"
#include "tensor/intraop.h"

#include <cstdio>

namespace perfbench {
namespace {

namespace meta = fewner::meta;

constexpr int64_t kIntraopThreads = 2;
constexpr int64_t kTenants = 16;
constexpr int64_t kGateRequests = 8;
constexpr int64_t kMeasuredRequests = 96;  ///< inputs of one round: three decks

const OpNames kNames = {"sentences_per_s", "sentences/s", "request_p50_ms",
                        "request_tail_ms"};

/// The serving system after set-up: the model, the encoded held-out pool, and
/// the adapted tenants.
struct TagStreamSystem {
  std::unique_ptr<ServingModel> model;
  data::Corpus held_out;
  std::vector<models::EncodedSentence> pool;
  std::vector<meta::AdaptedTagger> tenants;
};

std::unique_ptr<TagStreamSystem> BuildSystem(uint64_t seed) {
  auto system = std::make_unique<TagStreamSystem>();
  system->model = BuildServingModel();
  system->held_out = BuildHeldOutCorpus();
  system->pool.reserve(system->held_out.sentences.size());
  for (const data::Sentence& sentence : system->held_out.sentences) {
    system->pool.push_back(system->model->encoder->EncodeSentence(sentence, {}));
  }
  const TaskStream tenants(&system->model->world, system->model->encoder.get(),
                           TenantSeed(seed));
  system->tenants.reserve(kTenants);
  for (int64_t t = 0; t < kTenants; ++t) {
    const models::EncodedEpisode task = tenants.Task(t);
    system->tenants.emplace_back(system->model->net.get(), task.support,
                                 task.valid_tags, kTestInnerSteps, kInnerLr);
  }
  return system;
}

/// A request with its sentences materialized (client-side, untimed).
struct Batch {
  int64_t tenant = 0;
  std::vector<models::EncodedSentence> sentences;
};

}  // namespace

Result RunTagStream(const Options& options) {
  const tensor::ParallelismBudget budget(kIntraopThreads);
  Result result;
  std::unique_ptr<TagStreamSystem> system;
  int setup_reps = 0;
  const double setup_s = FastestSetupSeconds<TagStreamSystem>(
      [&] { return BuildSystem(options.seed); }, &system, &setup_reps);
  models::Backbone* net = system->model->net.get();
  RecordEnvironment(options, net->config(), 1, kIntraopThreads, &result);
  result.Env("tenants", kTenants);
  result.Env("pool_sentences", static_cast<int64_t>(system->pool.size()));
  result.Env("batch_deck", "\"1-32 uniform, each size once per 32 requests\"");
  result.Env("inner_steps", kTestInnerSteps);
  result.Env("setup_reps", setup_reps);

  RequestStream stream(static_cast<int64_t>(system->pool.size()), kTenants,
                       options.seed);
  const auto next = [&] {
    const Request request = stream.Next();
    Batch batch;
    batch.tenant = request.tenant;
    batch.sentences.reserve(request.sentences.size());
    for (int64_t i : request.sentences) {
      batch.sentences.push_back(system->pool[static_cast<size_t>(i)]);
    }
    return batch;
  };

  // Correctness gate, before any timing: batched TagAll tags equal
  // per-sentence Tag tags, and (traced run) the rebuilt TagAll's tags.
  for (int64_t i = 0; i < kGateRequests; ++i) {
    const Batch batch = next();
    const meta::AdaptedTagger& tenant = system->tenants[static_cast<size_t>(batch.tenant)];
    const std::vector<std::vector<int64_t>> tags = tenant.TagAll(batch.sentences);
    bool ok = tags.size() == batch.sentences.size();
    for (size_t s = 0; ok && s < tags.size(); ++s) {
      ok = tags[s] == tenant.Tag(batch.sentences[s]);
    }
    if (options.trace) {
      Tracer scratch;
      TraceCounters counters;
      ok = ok && TracedTagAll(net, batch.sentences, tenant.phi(), tenant.valid_tags(),
                              &scratch, &counters) == tags;
    }
    result.attempted += 1;
    if (!ok) {
      result.failed += 1;
      std::fprintf(stderr, "gate mismatch on request %lld\n", static_cast<long long>(i));
    }
  }
  result.Env("gate_requests", kGateRequests);

  // The measured requests follow the gate's in the stream, materialized
  // client-side before timing.
  std::vector<Batch> measured;
  measured.reserve(kMeasuredRequests);
  for (int64_t i = 0; i < kMeasuredRequests; ++i) measured.push_back(next());
  result.Env("measured_requests", kMeasuredRequests);
  const auto check = [&](const Batch* batch,
                         const std::vector<std::vector<int64_t>>& tags) -> int64_t {
    const auto& valid = system->tenants[static_cast<size_t>(batch->tenant)].valid_tags();
    return WellFormedTags(tags, batch->sentences, valid)
               ? static_cast<int64_t>(batch->sentences.size())
               : -1;
  };
  const auto serve = [&](const Batch* batch) {
    return system->tenants[static_cast<size_t>(batch->tenant)].TagAll(batch->sentences);
  };
  std::vector<const Batch*> inputs;
  if (!options.trace) {
    for (const Batch& batch : measured) inputs.push_back(&batch);
    const OpLog log = RoundRobin(options.seconds, inputs, serve, check, &result);
    AddEndToEnd(log, setup_s, kNames, &result);
    return result;
  }
  // Every request is served untraced, then traced, so the overhead comparison
  // sees the same machine states on both sides.
  for (const Batch& batch : measured) {
    inputs.push_back(&batch);
    inputs.push_back(&batch);
  }
  Tracer tracer;
  TraceCounters counters;
  int64_t op = 0;
  const OpLog both = RoundRobin(
      options.seconds, inputs,
      [&](const Batch* batch) {
        if (op++ % 2 == 0) return serve(batch);
        tracer.BeginOp();
        const meta::AdaptedTagger& tenant =
            system->tenants[static_cast<size_t>(batch->tenant)];
        Scope span(&tracer, Layer::kOp);
        ArenaWindow arena(&counters);
        return TracedTagAll(net, batch->sentences, tenant.phi(), tenant.valid_tags(),
                            &tracer, &counters);
      },
      check, &result);
  result.spans = tracer.spans();
  AddPerLayer(result.spans, counters, &result);
  ReportOverhead(EveryOther(both, 0), EveryOther(both, 1), kNames, &result);
  return result;
}

}  // namespace perfbench
