// Reproduces Table 4: cross-domain cross-type adaptation —
// GENIA→BioNLP13CG, OntoNotes→BioNLP13CG, OntoNotes→FG-NER.
//
//   ./build/bench/table4_cross_both [--adaptations GENIA:BioNLP13CG,...] ...

#include <iostream>

#include "bench/bench_util.h"

using namespace fewner;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddString("shots", "1", "comma list of K values (paper: 1,5)");
  flags.AddString("methods", "FineTune,ProtoNet,MAML,SNAIL,FewNER",
                  "methods to run (paper adds the frozen-LM group: pass "
                  "--methods all)");
  flags.AddString("adaptations",
                  "GENIA:BioNLP13CG,OntoNotes:BioNLP13CG",
                  "comma list of source:target dataset pairs (paper adds "
                  "OntoNotes:FG-NER)");
  if (!bench::ParseOrDie(&flags, argc, argv)) return 0;

  const eval::Table table = bench::RunGrid(
      flags, bench::AdaptationScenarios(flags.GetString("adaptations"),
                                        eval::MakeCrossDomainCrossType));
  std::cout << "\nTable 4: cross-domain cross-type adaptation (5-way)\n"
            << table.Render();
  return 0;
}
