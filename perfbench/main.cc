// The repository benchmark: one workload per process, one client thread.
//
//   perfbench --workload adapt_serve|tag_stream|meta_train --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs the workload's correctness gate, then measures for S seconds.  An
// untraced run (--trace 0) reports the end-to-end metrics; a traced run
// reports the per-layer metrics and the tracing overhead.  The last line of
// stdout is the result as one JSON object; the run environment and every
// metric are also written to DIR.  Exits non-zero on any failed op.

#include <cstdio>
#include <string>

#include "harness.h"
#include "util/flags.h"
#include "util/logging.h"

namespace perfbench {
namespace {

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string EnvJson(const Result& result) {
  std::string out = "{";
  for (size_t i = 0; i < result.env.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + result.env[i].first + "\": " + result.env[i].second;
  }
  return out + "}";
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs(text.c_str(), f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

int Main(int argc, char** argv) {
  fewner::util::FlagParser flags;
  flags.AddString("workload", "", "adapt_serve, tag_stream or meta_train");
  flags.AddInt("seed", 1, "workload seed: chooses the inputs, never the model");
  flags.AddDouble("seconds", 10.0, "measured wall time");
  flags.AddInt("trace", 0, "1: traced run reporting per-layer metrics");
  flags.AddString("out-dir", "", "directory for the result record and spans");
  const fewner::util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;
  fewner::util::SetLogLevel(fewner::util::LogLevel::kWarning);

  Options options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetInt("trace") != 0;
  options.out_dir = flags.GetString("out-dir");
  if (!(options.seconds > 0.0) || (flags.GetInt("trace") != 0 && flags.GetInt("trace") != 1)) {
    std::fprintf(stderr, "--seconds must be > 0 and --trace 0 or 1\n");
    return 2;
  }

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "adapt_serve") run = RunAdaptServe;
  if (options.workload == "tag_stream") run = RunTagStream;
  if (options.workload == "meta_train") run = RunMetaTrain;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", options.workload.c_str());
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Result result = run(options);
  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  std::printf("%-20s %14.4f (%lld failed / %lld attempted)\n", "error_rate", error_rate,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  result.Env("error_rate", JsonNumber(error_rate));
  const std::string env = EnvJson(result);
  std::printf("env %s\n", env.c_str());

  const bool correct = result.failed == 0 && result.attempted > 0;
  const std::string metrics = MetricsJson(result.metrics);
  if (!options.out_dir.empty()) {
    const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0");
    bool wrote = WriteText(stem + ".json", "{\"env\": " + env + ", \"attempted\": " +
                                               std::to_string(result.attempted) +
                                               ", \"failed\": " +
                                               std::to_string(result.failed) +
                                               ", \"metrics\": " + metrics + "}\n");
    if (options.trace) wrote = wrote && WriteSpans(stem + "-spans.csv", result.spans);
    if (!wrote) std::fprintf(stderr, "could not write %s.*\n", stem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
