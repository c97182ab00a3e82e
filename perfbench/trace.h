// In-memory span tracing for the benchmark's traced run.
//
// The traced run rebuilds each op from the library's public calls and wraps
// every call in a span.  Spans are recorded from the benchmark's own code only
// (nothing inside src/ is instrumented), kept in memory, and written out once
// the run ends.  A layer's self time is its span's duration minus the part of
// that interval its direct children cover.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The boundaries the traced run records: the op itself (the root span of
/// every op) and one layer per public library call it times.
enum class Layer : int {
  kOp = 0,
  kDataSample,        ///< data::EpisodeSampler::Sample
  kModelsEncode,      ///< models::EpisodeEncoder::Encode
  kModelsPack,        ///< models::PackBatch
  kModelsPrefix,      ///< Backbone::EncodePrefix (EvalMode)
  kModelsSuffixLoss,  ///< Backbone::BatchLossFromPrefix
  kModelsEmissions,   ///< Backbone::EmissionsFromPrefix
  kModelsBatchLoss,   ///< Backbone::BatchLoss (graph mode)
  kCrfViterbi,        ///< crf::LinearChainCrf::ViterbiBatch
  kTensorInnerGrad,   ///< autodiff::Grad w.r.t. φ
  kTensorMetaGrad,    ///< autodiff::Grad w.r.t. θ
  kMetaAdapt,         ///< the whole φ inner loop (Fewner::AdaptOnPrefix)
  kMetaTask,          ///< one meta-batch task function
  kMetaRun,           ///< meta::ParallelMetaBatch::Run
  kMetaReduce,        ///< meta::GradAccumulator::Finish
  kNnOptimizer,       ///< nn::ClipGradNorm + nn::Adam::Step
  kCount,
};

/// Metric-name prefix of a layer, e.g. "models.prefix".
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kOp;
  int64_t id = 0;       ///< index in the recorded span list
  int64_t parent = -1;  ///< id of the span that caused this one; -1 for a root
  int64_t op = 0;       ///< op the span belongs to
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Self time of every span (indexed like `spans`): its duration minus the
/// length of the union of its direct children's intervals, clipped to its
/// own.  Children may overlap — meta-batch tasks run on parallel workers.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Thread-safe span recorder.  Times are milliseconds since construction.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its id.
  int64_t Begin(Layer layer, int64_t parent);
  void End(int64_t id);

  /// Starts the next op: spans opened from now on (on any thread) carry its
  /// id.  Ops are numbered 0, 1, 2, ... in call order.
  void BeginOp() { op_.fetch_add(1, std::memory_order_relaxed); }

  std::vector<Span> spans() const;

 private:
  double NowMs() const;

  std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> op_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span.  The parent defaults to the innermost open Scope on the calling
/// thread; work handed to another thread names its parent explicitly.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer);
  Scope(Tracer* tracer, Layer layer, int64_t parent);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
  int64_t prev_;  ///< the calling thread's enclosing span, restored on exit
};

/// Per-layer totals over a traced run.
struct LayerSummary {
  int64_t calls = 0;
  double median_ms = 0.0;  ///< median inclusive duration per call
  double total_ms = 0.0;   ///< summed inclusive duration
  double self_ms = 0.0;    ///< summed self time
};

/// Indexed by static_cast<int>(Layer).
std::vector<LayerSummary> Summarize(const std::vector<Span>& spans);

/// Writes one CSV row per span (with its self time); false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
