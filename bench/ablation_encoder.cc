// Design-choice ablation (paper §3.2.2): the paper picks CNN-BiGRU-CRF for its
// cost/quality trade-off and notes the approach is model-agnostic.  This bench
// swaps the context encoder (BiGRU vs. BiLSTM) under FEWNER and reports both
// quality and training cost, substantiating the "model-agnostic" claim.
//
//   ./build/bench/ablation_encoder [--episodes N] [--iterations N] ...

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "eval/reporting.h"

using namespace fewner;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddString("shots", "1", "comma list of K values");
  flags.AddInt("iterations", 50, "training outer iterations");
  flags.AddInt("episodes", 4, "evaluation episodes");
  if (!bench::ParseOrDie(&flags, argc, argv)) return 0;

  const auto shots = bench::ParseShots(flags.GetString("shots"));
  eval::Table table({"Encoder", "Shots", "F1", "train seconds"});

  for (int64_t k : shots) {
    for (models::EncoderKind encoder :
         {models::EncoderKind::kBiGru, models::EncoderKind::kBiLstm}) {
      eval::ExperimentConfig config = bench::ConfigFromFlags(flags);
      config.k_shot = k;
      config.backbone.encoder = encoder;
      eval::Scenario scenario = eval::MakeIntraDomainScenario(
          data::kNne, config.data_scale, config.seed);
      eval::ExperimentRunner runner(std::move(scenario), config);
      const std::string name =
          encoder == models::EncoderKind::kBiGru ? "CNN-BiGRU-CRF" : "CNN-BiLSTM-CRF";
      const auto start = std::chrono::steady_clock::now();
      auto method = runner.CreateTrained(eval::MethodId::kFewner);
      eval::EvalResult result = bench::EvaluateHashed(
          method.get(), runner, name + " " + std::to_string(k) + "-shot");
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      table.AddRow({name, std::to_string(k) + "-shot", eval::FormatCell(result.f1),
                    util::FormatDouble(seconds, 1)});
      std::cout << name << " " << k << "-shot: " << eval::FormatCell(result.f1)
                << " (" << util::FormatDouble(seconds, 1) << "s)" << std::endl;
    }
  }
  std::cout << "\nDesign ablation: context encoder choice under FEWNER\n"
            << table.Render();
  return 0;
}
