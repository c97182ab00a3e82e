// Shared plumbing of the three workloads: options, results, end-to-end and
// per-layer metric assembly, and the rebuilt (traced) serving calls.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point begin, Clock::time_point end);

/// `value` with all its digits as a JSON number (0 when not finite).
std::string JsonNumber(double value);

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where results and spans are written ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics, or per-layer metrics in a traced run.
  std::vector<Metric> metrics;
  /// Run environment (key, JSON value), recorded next to every result.
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<Span> spans;  ///< traced run only

  void Env(const std::string& key, const std::string& json_value) {
    env.emplace_back(key, json_value);
  }
  void Env(const std::string& key, int64_t value) { Env(key, std::to_string(value)); }
};

/// Records the process- and model-level environment every result carries.
void RecordEnvironment(const Options& options, const models::BackboneConfig& config,
                       int64_t episode_threads, int64_t intraop_threads,
                       Result* result);

Clock::time_point Deadline(double seconds);

/// Set-up is repeated at least kMinSetupReps times and until kMinSetupSeconds
/// have passed (at most kMaxSetupReps times), and the fastest repeat is
/// reported, as each op input's fastest attempt is (see OpLog): the median of
/// the repeats followed the host's slow stretches, and its 10-run median moved
/// by 35% between sets of runs.
inline constexpr int kMinSetupReps = 5;
inline constexpr int kMaxSetupReps = 1000;
inline constexpr double kMinSetupSeconds = 4.0;

/// Fastest wall seconds of repeated calls to `build`; the last call's product
/// is kept in `*out` (earlier ones are destroyed before the next call starts).
template <typename T>
double FastestSetupSeconds(const std::function<std::unique_ptr<T>()>& build,
                          std::unique_ptr<T>* out, int* reps);

/// getrusage maxrss of this process, in MiB.
double PeakRssMb();

/// Rounds after which peak RSS is sampled (see OpLog).
inline constexpr int64_t kRssRounds = 2;

/// Best-of-rounds latencies and work of a fixed list of inputs.
///
/// The measured loop serves the same inputs round after round, and each input
/// keeps its fastest attempt.  The shared virtual machines this runs on slow a
/// core down for 0.1 s to several seconds at a time, by up to 4x in wall time
/// (and 1.8x in CPU time), and never speed it up: a fixed compute loop's
/// fastest time repeated to within 1% while single calls varied by 80%.
/// Attempts at one input are a round apart, so the fastest of several is that
/// input's cost unless a slow stretch covers the whole run.  Nothing in the
/// library is keyed on request content across ops, so a repeated input costs
/// what a fresh one of the same shape costs.
struct OpLog {
  std::vector<double> ms;      ///< per input: fastest wall ms
  std::vector<int64_t> items;  ///< per input: work an op completes (0 once one failed)
  int64_t attempts = 0;
  int64_t rounds = 0;  ///< complete rounds
  /// Peak RSS once `rss_attempts` attempts have completed.  The workspace
  /// arenas keep their buffers' capacity, so RSS creeps up with every new
  /// shape; sampling it after a fixed amount of work keeps runs of different
  /// speeds comparable.
  double peak_rss_mb = 0.0;
  int64_t rss_attempts = 0;

  /// Records peak RSS when the `at`-th attempt completes (or at the end of a
  /// run that never got that far).
  void SampleRss(int64_t at, bool run_ended);

  /// One attempt at input `input` (inputs are first recorded in order 0, 1, ...).
  void Record(size_t input, double op_ms, int64_t op_items);
  int64_t TotalItems() const;

  /// Closed loop, one client: work completed per second the system was busy.
  double ItemsPerSecond() const;
};

/// Inputs first, first + 2, first + 4, ... of `log`.
OpLog EveryOther(const OpLog& log, size_t first);

/// Closed loop with one client that serves `inputs` in order, round after
/// round, until `seconds` pass; the first round always completes.  Peak RSS is
/// sampled after kRssRounds rounds.  `serve(input)` is the timed op and returns
/// its tags, and `check(input, tags)` returns the items the op completed, or
/// -1 when its output is malformed (a failed op).
template <typename Input, typename Serve, typename Check>
OpLog RoundRobin(double seconds, const std::vector<Input>& inputs, Serve serve,
                 Check check, Result* result) {
  OpLog log;
  const int64_t rss_at = kRssRounds * static_cast<int64_t>(inputs.size());
  const Clock::time_point deadline = Deadline(seconds);
  for (bool more = true; more;) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (log.rounds > 0 && Clock::now() >= deadline) {
        more = false;
        break;
      }
      const Clock::time_point begin = Clock::now();
      const std::vector<std::vector<int64_t>> tags = serve(inputs[i]);
      const double ms = MsBetween(begin, Clock::now());
      const int64_t items = check(inputs[i], tags);
      result->attempted += 1;
      if (items < 0) result->failed += 1;
      log.Record(i, ms, items);
      log.SampleRss(rss_at, /*run_ended=*/false);
    }
    if (more) log.rounds += 1;
  }
  log.SampleRss(rss_at, /*run_ended=*/true);
  return log;
}

/// How a workload names its end-to-end metrics in the printed report.
struct OpNames {
  const char* items_per_s;  ///< e.g. "tasks_per_s"
  const char* item_unit;    ///< e.g. "tasks/s"
  const char* p50;          ///< e.g. "task_p50_ms"
  const char* tail;         ///< e.g. "task_tail_ms"
};

/// Prints the workload's end-to-end metrics under its own names and adds the
/// machine-readable ones (items_per_s, op_p50_ms, op_tail_ms, setup_s,
/// peak_rss_mb) to `result`.
void AddEndToEnd(const OpLog& log, double setup_s, const OpNames& names,
                 Result* result);

/// Counters the traced run takes at the layer boundaries.
struct TraceCounters {
  uint64_t prefixes = 0;      ///< CachedPrefix objects built
  uint64_t runs = 0;          ///< their LaneRuns sub-batches
  uint64_t real_tokens = 0;   ///< Σ sentence lengths
  uint64_t padded_slots = 0;  ///< Σ run lanes × run max length
  std::atomic<uint64_t> arena_reuse{0};
  std::atomic<uint64_t> arena_alloc{0};
  int64_t workers = 1;  ///< episode workers of meta.run
};

void RecordPrefix(const models::CachedPrefix& prefix, TraceCounters* counters);

/// Adds the calling thread's WorkspaceArena reuse/alloc deltas over its
/// lifetime to the counters.
class ArenaWindow {
 public:
  explicit ArenaWindow(TraceCounters* counters);
  ~ArenaWindow();

  ArenaWindow(const ArenaWindow&) = delete;
  ArenaWindow& operator=(const ArenaWindow&) = delete;

 private:
  TraceCounters* counters_;
  uint64_t reuse0_;
  uint64_t alloc0_;
};

/// Every per-layer metric, from the traced run's spans and counters.
void AddPerLayer(const std::vector<Span>& spans, const TraceCounters& counters,
                 Result* result);

/// Prints untraced-vs-traced throughput as the tracing overhead.
void ReportOverhead(const OpLog& untraced, const OpLog& traced, const OpNames& names,
                    Result* result);

bool SameBits(const tensor::Tensor& a, const tensor::Tensor& b);

/// Every sentence got one tag per token, each a tag the task allows.
bool WellFormedTags(const std::vector<std::vector<int64_t>>& tags,
                    const std::vector<models::EncodedSentence>& sentences,
                    const std::vector<bool>& valid_tags);

/// One φ step of FEWNER's inner loop (paper Eq. 5): the gradient is clipped to
/// global norm 5.0, then descended; at test time φ is re-leafed so graphs do
/// not accumulate.  Mirrors meta::Fewner's loop op for op.
tensor::Tensor InnerStep(const tensor::Tensor& phi, const tensor::Tensor& grad,
                         float inner_lr, bool create_graph);

/// The paper-scale serving system shared by adapt_serve and tag_stream.
struct ServingModel {
  World world;
  std::unique_ptr<models::EpisodeEncoder> encoder;
  std::unique_ptr<models::Backbone> net;
};

std::unique_ptr<ServingModel> BuildServingModel();

/// AdaptedTagger::TagAll rebuilt from its public calls (PackBatch,
/// EncodePrefix, EmissionsFromPrefix, ViterbiBatch), one span each.
std::vector<std::vector<int64_t>> TracedTagAll(
    models::Backbone* net, const std::vector<models::EncodedSentence>& sentences,
    const tensor::Tensor& phi, const std::vector<bool>& valid_tags, Tracer* tracer,
    TraceCounters* counters);

Result RunAdaptServe(const Options& options);
Result RunTagStream(const Options& options);
Result RunMetaTrain(const Options& options);

// ---------------------------------------------------------------------------

template <typename T>
double FastestSetupSeconds(const std::function<std::unique_ptr<T>()>& build,
                          std::unique_ptr<T>* out, int* reps) {
  std::vector<double> seconds;
  double total = 0.0;
  while (static_cast<int>(seconds.size()) < kMinSetupReps ||
         (total < kMinSetupSeconds && static_cast<int>(seconds.size()) < kMaxSetupReps)) {
    out->reset();
    const Clock::time_point begin = Clock::now();
    *out = build();
    seconds.push_back(MsBetween(begin, Clock::now()) / 1000.0);
    total += seconds.back();
  }
  *reps = static_cast<int>(seconds.size());
  return *std::min_element(seconds.begin(), seconds.end());
}

}  // namespace perfbench
