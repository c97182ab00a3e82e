// Reproduces Table 5: ablation study of FEWNER on intra-domain cross-type
// adaptation with the NNE data.  Variants: conditioning method A (concat)
// instead of B (FiLM); removing the character CNN; 4/6/8 inner gradient steps
// during training; half/double context dimensions; 3/10/15 training ways.
// Reports absolute F1 and the delta against the FEWNER default.
//
//   ./build/bench/table5_ablation [--episodes N] [--iterations N] ...

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "eval/evaluator.h"
#include "eval/reporting.h"

using namespace fewner;  // NOLINT: bench brevity

namespace {

struct Variant {
  std::string name;
  std::function<void(eval::ExperimentConfig*)> apply;
};

/// Trains and evaluates one variant; `theta_line` gets its θ hash line.
eval::ScoreSummary RunVariant(const Variant& variant,
                              const eval::ExperimentConfig& base_config, uint64_t seed,
                              const std::string& row, std::string* theta_line) {
  eval::ExperimentConfig config = base_config;
  variant.apply(&config);
  eval::Scenario scenario =
      eval::MakeIntraDomainScenario(data::kNne, config.data_scale, seed);
  eval::ExperimentRunner runner(std::move(scenario), config);
  std::unique_ptr<meta::FewShotMethod> method = runner.CreateTrained(eval::MethodId::kFewner);
  *theta_line = bench::ThetaFnv1aLine(row, bench::TrainedTheta(method.get()));
  return runner.Evaluate(method.get()).f1;
}

std::string Delta(const eval::ScoreSummary& variant,
                  const eval::ScoreSummary& reference) {
  const double diff = (variant.mean - reference.mean) * 100.0;
  std::string out = util::FormatDouble(diff, 2) + "%";
  if (diff >= 0) out = "+" + out;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddString("shots", "1", "comma list of K values (paper: 1,5)");
  flags.AddInt("iterations", 35, "training outer iterations per variant");
  flags.AddInt("episodes", 3, "evaluation episodes per variant");
  if (!bench::ParseOrDie(&flags, argc, argv)) return 0;

  const auto shots = bench::ParseShots(flags.GetString("shots"));
  eval::ExperimentConfig base = bench::ConfigFromFlags(flags);
  const int64_t default_context = base.backbone.context_dim;

  std::vector<Variant> variants = {
      {"FewNER (default: FiLM, 2 inner steps)", [](eval::ExperimentConfig*) {}},
      {"Conditioning method A (concat)",
       [](eval::ExperimentConfig* c) {
         c->backbone.conditioning = models::Conditioning::kConcat;
       }},
      {"Remove character CNN",
       [](eval::ExperimentConfig* c) { c->backbone.use_char_cnn = false; }},
      {"Inner gradient steps: 4",
       [](eval::ExperimentConfig* c) { c->train.inner_steps_train = 4; }},
      {"Inner gradient steps: 6",
       [](eval::ExperimentConfig* c) { c->train.inner_steps_train = 6; }},
      {"Inner gradient steps: 8",
       [](eval::ExperimentConfig* c) { c->train.inner_steps_train = 8; }},
      {"Dimensions of phi: half",
       [default_context](eval::ExperimentConfig* c) {
         c->backbone.context_dim = default_context / 2;
       }},
      {"Dimensions of phi: double",
       [default_context](eval::ExperimentConfig* c) {
         c->backbone.context_dim = default_context * 2;
       }},
      {"Training way: 3", [](eval::ExperimentConfig* c) { c->train_way = 3; }},
      {"Training way: 10", [](eval::ExperimentConfig* c) { c->train_way = 10; }},
      {"Training way: 15", [](eval::ExperimentConfig* c) { c->train_way = 15; }},
  };

  std::vector<std::string> headers = {"Variant"};
  for (int64_t k : shots) {
    headers.push_back(std::to_string(k) + "-shot");
    headers.push_back("delta");
  }
  eval::Table table(headers);

  std::vector<eval::ScoreSummary> reference(shots.size());
  std::vector<std::string> theta_lines;
  for (size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> row = {variants[v].name};
    for (size_t s = 0; s < shots.size(); ++s) {
      eval::ExperimentConfig config = base;
      config.k_shot = shots[s];
      std::string theta_line;
      eval::ScoreSummary summary =
          RunVariant(variants[v], config, config.seed,
                     "[" + std::to_string(shots[s]) + "-shot] " + variants[v].name,
                     &theta_line);
      theta_lines.push_back(std::move(theta_line));
      if (v == 0) reference[s] = summary;
      row.push_back(eval::FormatCell(summary));
      row.push_back(v == 0 ? "--" : Delta(summary, reference[s]));
      std::cout << "[" << shots[s] << "-shot] " << variants[v].name << ": "
                << eval::FormatCell(summary) << std::endl;
    }
    table.AddRow(std::move(row));
  }
  std::cout << "\nTable 5: ablation study on NNE intra-domain cross-type\n"
            << table.Render();
  for (const std::string& line : theta_lines) std::cout << line << "\n";
  return 0;
}
