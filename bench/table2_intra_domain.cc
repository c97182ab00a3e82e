// Reproduces Table 2: intra-domain cross-type adaptation on NNE, FG-NER and
// GENIA — 5-way 1-shot and 5-shot, ten methods, average F1 with 95% CI over a
// fixed list of held-out tasks.
//
//   ./build/bench/table2_intra_domain [--datasets NNE,GENIA] [--methods ...]
//   Full-paper settings: --episodes 1000 --scale 1.0 --iterations 2500

#include <iostream>

#include "bench/bench_util.h"

using namespace fewner;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddString("methods", "BERT,FineTune,ProtoNet,SNAIL,FewNER",
                  "methods in the default sweep; MAML appears in tables 3/4 and\n"
                  "the second-order ablation (pass --methods all for all ten)");
  flags.AddString("datasets", "FG-NER,GENIA",
                  "comma list of datasets (paper: NNE,FG-NER,GENIA)");
  if (!bench::ParseOrDie(&flags, argc, argv)) return 0;

  std::vector<bench::GridScenario> scenarios;
  for (const std::string& dataset : util::Split(flags.GetString("datasets"), ',')) {
    scenarios.push_back({dataset, [dataset](double scale, uint64_t seed) {
                           return eval::MakeIntraDomainScenario(dataset, scale, seed);
                         }});
  }
  const eval::Table table =
      bench::RunGrid(flags, scenarios, [](eval::MethodId id) -> std::string {
        const bool is_lm = id == eval::MethodId::kGpt2 || id == eval::MethodId::kFlair ||
                           id == eval::MethodId::kElmo || id == eval::MethodId::kBert ||
                           id == eval::MethodId::kXlnet;
        return is_lm ? "Dynamic Token Representation: Frozen LM Embeddings + CRF"
                     : "Static Token Representation: HashEmb + CNN";
      });
  std::cout << "\nTable 2: intra-domain cross-type adaptation (5-way)\n"
            << table.Render();
  return 0;
}
