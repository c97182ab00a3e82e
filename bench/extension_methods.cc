// Extension bench: two meta-learning baselines beyond the paper's table —
// Reptile (first-order initialization learning) and MatchingNet (the metric
// method that introduced N-way K-shot) — against FEWNER, ProtoNet and MAML on
// the NNE intra-domain scenario.  Fills out the optimization-based vs.
// metric-based landscape of the paper's §2.2.
//
//   ./build/bench/extension_methods [--episodes N] [--iterations N] ...

#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "eval/reporting.h"
#include "meta/matching_net.h"
#include "meta/reptile.h"

using namespace fewner;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddString("shots", "1", "comma list of K values");
  flags.AddInt("iterations", 50, "training outer iterations");
  flags.AddInt("episodes", 4, "evaluation episodes");
  if (!bench::ParseOrDie(&flags, argc, argv)) return 0;

  const auto shots = bench::ParseShots(flags.GetString("shots"));
  eval::Table table({"Method", "Shots", "F1"});

  for (int64_t k : shots) {
    eval::ExperimentConfig config = bench::ConfigFromFlags(flags);
    config.k_shot = k;
    eval::Scenario scenario =
        eval::MakeIntraDomainScenario(data::kNne, config.data_scale, config.seed);
    eval::ExperimentRunner runner(std::move(scenario), config);

    // One row per trained method, after its theta_fnv1a line.
    const std::string shot = std::to_string(k) + "-shot";
    auto report = [&](meta::FewShotMethod* method) {
      eval::EvalResult result =
          bench::EvaluateHashed(method, runner, method->name() + " " + shot);
      table.AddRow({result.method, shot, eval::FormatCell(result.f1)});
      std::cout << result.method << " " << shot << ": " << eval::FormatCell(result.f1)
                << std::endl;
    };
    // Paper-table methods through the registry.
    for (eval::MethodId id :
         {eval::MethodId::kProtoNet, eval::MethodId::kMaml, eval::MethodId::kFewner}) {
      report(runner.CreateTrained(id).get());
    }

    // Extension methods, trained/evaluated on the identical task lists.
    auto run_extension = [&](std::unique_ptr<meta::FewShotMethod> method) {
      method->Train(runner.train_sampler(), runner.encoder(), config.train);
      report(method.get());
    };
    models::BackboneConfig ext_config = runner.ResolvedBackboneConfig();
    util::Rng reptile_rng(util::Mix64(config.seed ^ util::HashString("Reptile")));
    run_extension(std::make_unique<meta::Reptile>(ext_config, &reptile_rng));
    util::Rng matching_rng(util::Mix64(config.seed ^ util::HashString("MatchingNet")));
    run_extension(std::make_unique<meta::MatchingNet>(ext_config, &matching_rng));
  }
  std::cout << "\nExtension methods vs paper methods (NNE intra-domain)\n"
            << table.Render();
  return 0;
}
