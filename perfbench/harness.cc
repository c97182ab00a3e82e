#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "text/bio.h"

namespace perfbench {

using tensor::Tensor;

namespace {

int64_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int64_t>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

}  // namespace

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double MsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void RecordEnvironment(const Options& options, const models::BackboneConfig& config,
                       int64_t episode_threads, int64_t intraop_threads,
                       Result* result) {
  result->Env("workload", "\"" + options.workload + "\"");
  result->Env("seed", static_cast<int64_t>(options.seed));
  result->Env("seconds", JsonNumber(options.seconds));
  result->Env("trace", options.trace ? 1 : 0);
  result->Env("nproc", AvailableCpus());
  result->Env("hardware_threads",
              static_cast<int64_t>(std::thread::hardware_concurrency()));
  result->Env("episode_threads", episode_threads);
  result->Env("intraop_threads", intraop_threads);
  result->Env("word_dim", config.word_dim);
  result->Env("char_dim", config.char_dim);
  result->Env("filters_per_width", config.filters_per_width);
  result->Env("hidden_dim", config.hidden_dim);
  result->Env("context_dim", config.context_dim);
  result->Env("max_tags", config.max_tags);
  result->Env("dropout", JsonNumber(config.dropout));
  result->Env("word_vocab", config.word_vocab_size);
}

void OpLog::SampleRss(int64_t at, bool run_ended) {
  if (peak_rss_mb > 0.0) return;
  if (attempts >= at || run_ended) {
    peak_rss_mb = PeakRssMb();
    rss_attempts = attempts;
  }
}

void OpLog::Record(size_t input, double op_ms, int64_t op_items) {
  attempts += 1;
  op_items = std::max<int64_t>(op_items, 0);
  if (input == ms.size()) {
    ms.push_back(op_ms);
    items.push_back(op_items);
    return;
  }
  ms[input] = std::min(ms[input], op_ms);
  items[input] = std::min(items[input], op_items);
}

int64_t OpLog::TotalItems() const {
  int64_t total = 0;
  for (int64_t n : items) total += n;
  return total;
}

double OpLog::ItemsPerSecond() const {
  double busy_ms = 0.0;
  for (double m : ms) busy_ms += m;
  return busy_ms > 0.0 ? static_cast<double>(TotalItems()) * 1000.0 / busy_ms : 0.0;
}

OpLog EveryOther(const OpLog& log, size_t first) {
  OpLog out;
  for (size_t i = first; i < log.ms.size(); i += 2) {
    out.Record(out.ms.size(), log.ms[i], log.items[i]);
  }
  return out;
}

void AddEndToEnd(const OpLog& log, double setup_s, const OpNames& names,
                 Result* result) {
  const double items_per_s = log.ItemsPerSecond();
  const double p50 = Median(log.ms);
  const Tail tail = TailOf(log.ms);
  std::printf("%-20s %14.4f %s\n", names.items_per_s, items_per_s, names.item_unit);
  std::printf("%-20s %14.4f ms (median of %lld inputs)\n", names.p50, p50,
              static_cast<long long>(tail.samples));
  std::printf("%-20s %14.4f ms (p%.2f of %lld inputs, %lld beyond it)\n", names.tail,
              tail.value, tail.percentile, static_cast<long long>(tail.samples),
              static_cast<long long>(tail.beyond));
  std::printf("%-20s %14.4f s (fastest set-up repeat)\n", "setup_s", setup_s);
  std::printf("%-20s %14.4f MiB (getrusage maxrss after %lld ops)\n", "peak_rss_mb",
              log.peak_rss_mb, static_cast<long long>(log.rss_attempts));
  std::printf("(each input's fastest of %lld ops over %lld whole rounds)\n",
              static_cast<long long>(log.attempts), static_cast<long long>(log.rounds));
  result->metrics = {
      {"items_per_s", items_per_s, "items/s"},
      {"op_p50_ms", p50, "ms"},
      {"op_tail_ms", tail.value, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", log.peak_rss_mb, "MiB"},
  };
  result->Env("inputs", tail.samples);
  result->Env("attempts", log.attempts);
  result->Env("rounds", log.rounds);
  result->Env("items", log.TotalItems());
  result->Env("tail_percentile", JsonNumber(tail.percentile));
  result->Env("tail_beyond", tail.beyond);
  result->Env("rss_attempts", log.rss_attempts);
}

void RecordPrefix(const models::CachedPrefix& prefix, TraceCounters* counters) {
  counters->prefixes += 1;
  counters->runs += prefix.runs.size();
  for (const models::CachedPrefix::Run& run : prefix.runs) {
    for (int64_t len : run.batch.lengths) counters->real_tokens += static_cast<uint64_t>(len);
    counters->padded_slots += static_cast<uint64_t>(run.batch.batch * run.batch.max_len);
  }
}

ArenaWindow::ArenaWindow(TraceCounters* counters)
    : counters_(counters),
      reuse0_(tensor::WorkspaceArena::ThreadLocal().reuse_count()),
      alloc0_(tensor::WorkspaceArena::ThreadLocal().alloc_count()) {}

ArenaWindow::~ArenaWindow() {
  const tensor::WorkspaceArena& arena = tensor::WorkspaceArena::ThreadLocal();
  counters_->arena_reuse += arena.reuse_count() - reuse0_;
  counters_->arena_alloc += arena.alloc_count() - alloc0_;
}

void AddPerLayer(const std::vector<Span>& spans, const TraceCounters& counters,
                 Result* result) {
  const std::vector<LayerSummary> layers = Summarize(spans);
  const LayerSummary& ops = layers[static_cast<size_t>(Layer::kOp)];
  const double per_op = ops.calls > 0 ? 1.0 / static_cast<double>(ops.calls) : 0.0;
  const double per_wall_ms = ops.total_ms > 0.0 ? 100.0 / ops.total_ms : 0.0;
  result->metrics.clear();
  for (int l = 1; l < static_cast<int>(Layer::kCount); ++l) {
    const LayerSummary& s = layers[static_cast<size_t>(l)];
    const std::string name = LayerName(static_cast<Layer>(l));
    result->metrics.push_back({name + "_ms", s.median_ms, "ms"});
    result->metrics.push_back(
        {name + "_calls", static_cast<double>(s.calls) * per_op, "calls/op"});
    result->metrics.push_back({name + "_share", s.self_ms * per_wall_ms, "%"});
  }
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double reuse = static_cast<double>(counters.arena_reuse.load());
  const double alloc = static_cast<double>(counters.arena_alloc.load());
  const double run_ms = layers[static_cast<size_t>(Layer::kMetaRun)].total_ms;
  const double task_ms = layers[static_cast<size_t>(Layer::kMetaTask)].total_ms;
  result->metrics.push_back(
      {"models.runs_per_batch",
       ratio(static_cast<double>(counters.runs), static_cast<double>(counters.prefixes)),
       "runs"});
  result->metrics.push_back({"models.pad_efficiency",
                             ratio(static_cast<double>(counters.real_tokens),
                                   static_cast<double>(counters.padded_slots)),
                             "ratio"});
  result->metrics.push_back({"tensor.arena_reuse_ratio", ratio(reuse, reuse + alloc),
                             "ratio"});
  result->metrics.push_back(
      {"meta.worker_idle_share",
       run_ms > 0.0
           ? 1.0 - task_ms / (static_cast<double>(counters.workers) * run_ms)
           : 0.0,
       "ratio"});

  std::printf("%-22s %9s %12s %9s\n", "layer", "calls/op", "median ms", "self %");
  for (int l = 1; l < static_cast<int>(Layer::kCount); ++l) {
    const LayerSummary& s = layers[static_cast<size_t>(l)];
    if (s.calls == 0) continue;
    std::printf("%-22s %9.2f %12.4f %9.2f\n", LayerName(static_cast<Layer>(l)),
                static_cast<double>(s.calls) * per_op, s.median_ms,
                s.self_ms * per_wall_ms);
  }
  result->Env("traced_ops", ops.calls);
  result->Env("spans", static_cast<int64_t>(spans.size()));
}

void ReportOverhead(const OpLog& untraced, const OpLog& traced, const OpNames& names,
                    Result* result) {
  const double a = untraced.ItemsPerSecond();
  const double b = traced.ItemsPerSecond();
  const double overhead = a > 0.0 ? 100.0 * (a - b) / a : 0.0;
  std::printf("tracing overhead: untraced %.4f %s (%zu inputs), traced %.4f %s "
              "(%zu inputs): %.2f%%\n",
              a, names.item_unit, untraced.ms.size(), b, names.item_unit,
              traced.ms.size(), overhead);
  result->Env("untraced_items_per_s", JsonNumber(a));
  result->Env("traced_items_per_s", JsonNumber(b));
  result->Env("tracing_overhead_pct", JsonNumber(overhead));
}

bool SameBits(const Tensor& a, const Tensor& b) {
  const std::vector<float>& x = a.data();
  const std::vector<float>& y = b.data();
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

bool WellFormedTags(const std::vector<std::vector<int64_t>>& tags,
                    const std::vector<models::EncodedSentence>& sentences,
                    const std::vector<bool>& valid_tags) {
  if (tags.size() != sentences.size()) return false;
  for (size_t i = 0; i < tags.size(); ++i) {
    if (static_cast<int64_t>(tags[i].size()) != sentences[i].length()) return false;
    for (int64_t t : tags[i]) {
      if (t < 0 || t >= static_cast<int64_t>(valid_tags.size()) ||
          !valid_tags[static_cast<size_t>(t)]) {
        return false;
      }
    }
  }
  return true;
}

Tensor InnerStep(const Tensor& phi, const Tensor& grad, float inner_lr,
                 bool create_graph) {
  double norm_sq = 0.0;
  for (float v : grad.data()) norm_sq += static_cast<double>(v) * v;
  const float norm = static_cast<float>(std::sqrt(norm_sq));
  const float clip_scale = norm > 5.0f ? 5.0f / norm : 1.0f;
  Tensor next = tensor::Sub(phi, tensor::MulScalar(grad, inner_lr * clip_scale));
  if (create_graph) return next;
  Tensor leaf = next.Detach();
  leaf.set_requires_grad(true);
  return leaf;
}

std::unique_ptr<ServingModel> BuildServingModel() {
  auto model = std::make_unique<ServingModel>();
  model->world = BuildWorld();
  model->encoder = std::make_unique<models::EpisodeEncoder>(
      &model->world.words, &model->world.chars, fewner::text::NumTags(kNWay));
  fewner::util::Rng rng(kThetaSeed);
  model->net = std::make_unique<models::Backbone>(PaperBackbone(model->world), &rng);
  model->net->SetTraining(false);
  return model;
}

std::vector<std::vector<int64_t>> TracedTagAll(
    models::Backbone* net, const std::vector<models::EncodedSentence>& sentences,
    const Tensor& phi, const std::vector<bool>& valid_tags, Tracer* tracer,
    TraceCounters* counters) {
  tensor::EvalMode eval;
  models::EncodedBatch batch;
  {
    Scope span(tracer, Layer::kModelsPack);
    batch = models::PackBatch(sentences);
  }
  models::CachedPrefix prefix;
  {
    Scope span(tracer, Layer::kModelsPrefix);
    prefix = net->EncodePrefix(batch);
  }
  RecordPrefix(prefix, counters);
  Tensor emissions;
  {
    Scope span(tracer, Layer::kModelsEmissions);
    emissions = net->EmissionsFromPrefix(prefix, phi);
  }
  Scope span(tracer, Layer::kCrfViterbi);
  return net->crf()->ViterbiBatch(emissions, batch.lengths, &valid_tags);
}

}  // namespace perfbench
