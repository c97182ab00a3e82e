// Reproduces Table 3: cross-domain intra-type adaptation on ACE-2005 —
// BC→UN, BN→CTS and NW→WL, 5-way 1-shot and 5-shot, ten methods.
//
//   ./build/bench/table3_cross_domain [--adaptations BC:UN,BN:CTS,NW:WL] ...

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
  flags.AddString("adaptations", "BC:UN,BN:CTS",
                  "comma list of source:target ACE-2005 domain pairs (paper adds NW:WL)");
  if (!bench::ParseOrDie(&flags, argc, argv)) return 0;

  const eval::Table table = bench::RunGrid(
      flags, bench::AdaptationScenarios(flags.GetString("adaptations"),
                                        eval::MakeCrossDomainIntraType));
  std::cout << "\nTable 3: cross-domain intra-type adaptation (ACE-2005, 5-way)\n"
            << table.Render();
  return 0;
}
