// Design-choice ablation (DESIGN.md §4.1): exact second-order meta-gradients
// vs. the first-order approximation (FOMAML-style detached inner gradients),
// for both FEWNER and MAML on NNE intra-domain cross-type adaptation.  The
// paper's Eq. 6 explicitly requires the gradient-through-gradient term; this
// bench quantifies what it buys and what it costs in training time.
//
//   ./build/bench/ablation_second_order [--episodes N] [--iterations N] ...

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "eval/evaluator.h"
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
  eval::Table table({"Method", "Order", "F1", "train seconds"});
  std::vector<std::string> theta_lines;

  for (int64_t k : shots) {
    for (eval::MethodId id : {eval::MethodId::kFewner, eval::MethodId::kMaml}) {
      for (bool first_order : {false, true}) {
        eval::ExperimentConfig config = bench::ConfigFromFlags(flags);
        config.k_shot = k;
        config.train.first_order = first_order;
        eval::Scenario scenario = eval::MakeIntraDomainScenario(
            data::kNne, config.data_scale, config.seed);
        eval::ExperimentRunner runner(std::move(scenario), config);
        const auto start = std::chrono::steady_clock::now();
        std::unique_ptr<meta::FewShotMethod> method = runner.CreateTrained(id);
        const std::string row = eval::MethodName(id) + " " + std::to_string(k) + "-shot";
        theta_lines.push_back(bench::ThetaFnv1aLine(
            row + (first_order ? " first" : " second"), bench::TrainedTheta(method.get())));
        eval::EvalResult result = runner.Evaluate(method.get());
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count();
        table.AddRow({row, first_order ? "first" : "second",
                      eval::FormatCell(result.f1),
                      util::FormatDouble(seconds, 1)});
        std::cout << eval::MethodName(id) << " " << k << "-shot "
                  << (first_order ? "first" : "second")
                  << "-order: " << eval::FormatCell(result.f1) << " ("
                  << util::FormatDouble(seconds, 1) << "s)" << std::endl;
      }
    }
  }
  std::cout << "\nDesign ablation: second-order vs first-order meta-gradients\n"
            << table.Render();
  for (const std::string& line : theta_lines) std::cout << line << "\n";
  return 0;
}
