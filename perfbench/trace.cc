#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace {

/// Innermost open Scope on this thread (-1: none).
thread_local int64_t g_current_span = -1;

constexpr const char* kLayerNames[] = {
    "op",
    "data.sample",
    "models.encode",
    "models.pack",
    "models.prefix",
    "models.suffix_loss",
    "models.emissions",
    "models.batch_loss",
    "crf.viterbi",
    "tensor.inner_grad",
    "tensor.meta_grad",
    "meta.adapt",
    "meta.task",
    "meta.run",
    "meta.reduce",
    "nn.optimizer",
};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<size_t>(Layer::kCount));

}  // namespace

const char* LayerName(Layer layer) { return kLayerNames[static_cast<int>(layer)]; }

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans.size())) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to [lo, hi].
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
      } else {
        if (open) covered += run_end - run_begin;
        run_begin = a;
        run_end = b;
        open = true;
      }
    }
    if (open) covered += run_end - run_begin;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(Layer layer, int64_t parent) {
  const int64_t op = op_.load(std::memory_order_relaxed);
  const double start = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.layer = layer;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.op = op;
  span.start_ms = start;
  span.end_ms = start;
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(int64_t id) {
  const double end = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Scope::Scope(Tracer* tracer, Layer layer) : Scope(tracer, layer, g_current_span) {}

Scope::Scope(Tracer* tracer, Layer layer, int64_t parent)
    : tracer_(tracer), id_(tracer->Begin(layer, parent)), prev_(g_current_span) {
  g_current_span = id_;
}

Scope::~Scope() {
  tracer_->End(id_);
  g_current_span = prev_;
}

std::vector<LayerSummary> Summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::vector<LayerSummary> out(static_cast<size_t>(Layer::kCount));
  std::vector<std::vector<double>> durations(out.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t layer = static_cast<size_t>(spans[i].layer);
    const double ms = spans[i].end_ms - spans[i].start_ms;
    out[layer].calls += 1;
    out[layer].total_ms += ms;
    out[layer].self_ms += self[i];
    durations[layer].push_back(ms);
  }
  for (size_t layer = 0; layer < out.size(); ++layer) {
    out[layer].median_ms = Median(std::move(durations[layer]));
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfTimes(spans);
  std::fprintf(f, "id,parent,op,layer,start_ms,end_ms,self_ms\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%lld,%lld,%lld,%s,%.6f,%.6f,%.6f\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), LayerName(s.layer), s.start_ms,
                 s.end_ms, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
