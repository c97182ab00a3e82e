// Shared flag plumbing for the table-reproduction benches.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/reporting.h"
#include "meta/fewner.h"
#include "meta/finetune.h"
#include "meta/lm_tagger.h"
#include "meta/maml.h"
#include "meta/matching_net.h"
#include "meta/protonet.h"
#include "meta/reptile.h"
#include "meta/snail.h"
#include "nn/module.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fewner::bench {

/// What a method learns: its backbone, SNAIL's whole model (backbone, TC
/// blocks, attention and classifier), or a frozen-LM baseline's CRF head.
inline nn::Module* TrainedTheta(meta::FewShotMethod* method) {
  if (auto* m = dynamic_cast<meta::Fewner*>(method)) return m->backbone();
  if (auto* m = dynamic_cast<meta::Maml*>(method)) return m->backbone();
  if (auto* m = dynamic_cast<meta::FineTune*>(method)) return m->backbone();
  if (auto* m = dynamic_cast<meta::ProtoNet*>(method)) return m->backbone();
  if (auto* m = dynamic_cast<meta::MatchingNet*>(method)) return m->backbone();
  if (auto* m = dynamic_cast<meta::Reptile*>(method)) return m->backbone();
  if (auto* m = dynamic_cast<meta::Snail*>(method)) return m->model();
  if (auto* m = dynamic_cast<meta::LmCrfTagger*>(method)) return m->head();
  FEWNER_CHECK(false, "TrainedTheta: " << method->name() << " has no trained θ");
  return nullptr;
}

/// The line `theta_fnv1a <row> <16 hex digits>`: eval::Fnv1aHex over θ's
/// floats, in nn::ParameterTensors order.
inline std::string ThetaFnv1aLine(const std::string& row, nn::Module* theta) {
  return "theta_fnv1a " + row + " " + eval::Fnv1aHex(nn::ParameterTensors(theta));
}

/// Prints the `theta_fnv1a <row> <hash>` line of a trained method, then
/// evaluates it on the runner's held-out task list.
inline eval::EvalResult EvaluateHashed(meta::FewShotMethod* method,
                                       const eval::ExperimentRunner& runner,
                                       const std::string& row) {
  std::cout << ThetaFnv1aLine(row, TrainedTheta(method)) << std::endl;
  return runner.Evaluate(method);
}

/// Registers the flags shared by every table bench.
// Default scales are chosen so the WHOLE bench suite (all seven binaries,
// default flags) completes in about an hour on one CPU core while still
// exhibiting the paper's orderings.  Paper-protocol runs: --episodes 1000
// --scale 1.0 --iterations 2500 --methods all --shots 1,5.
inline void AddCommonFlags(util::FlagParser* flags) {
  flags->AddInt("episodes", 4, "evaluation episodes per cell (paper: 1000)");
  flags->AddInt("iterations", 50, "training outer iterations per method");
  flags->AddDouble("scale", 0.08, "corpus scale in (0,1] (paper: 1.0)");
  flags->AddInt("seed", 42, "global seed (fixes the evaluation task list)");
  flags->AddString("methods", "all",
                   "comma list of methods (GPT2,Flair,ELMo,BERT,XLNet,FineTune,"
                   "ProtoNet,MAML,SNAIL,FewNER) or 'all'");
  flags->AddString("shots", "1,5", "comma list of K values");
  flags->AddInt("lm-pretrain-steps", 150,
                "pre-training sentence-updates per LM baseline");
  flags->AddDouble("meta-lr", 0.004,
                   "outer-loop learning rate; the paper's 0.0008 assumes "
                   "convergence-scale training (use it with --iterations 2500+)");
  flags->AddInt("query-size", 6, "query sentences per evaluation episode");
  flags->AddDouble("inner-lr", 0.2,
                   "inner/adaptation learning rate alpha (paper: 0.1; the larger "
                   "CPU-scale default compensates for shorter meta-training)");
  flags->AddInt("inner-steps-test", 12,
                "adaptation gradient steps at test time (paper: 8)");
  flags->AddInt("inner-steps-train", 3,
                "inner gradient steps during training (paper: 2)");
  flags->AddBool("verbose", false, "log training progress");
}

/// Parses the --methods flag.
inline std::vector<eval::MethodId> ParseMethods(const std::string& value) {
  if (util::ToLower(value) == "all") return eval::AllMethods();
  std::vector<eval::MethodId> methods;
  for (const std::string& name : util::Split(value, ',')) {
    methods.push_back(eval::MethodFromName(name));
  }
  return methods;
}

/// Parses the --shots flag: a comma list of positive integers.  An empty,
/// non-integer, trailing-junk or < 1 entry prints an error and exits 1.
inline std::vector<int64_t> ParseShots(const std::string& value) {
  std::vector<int64_t> shots;
  size_t begin = 0;
  while (true) {
    const size_t comma = value.find(',', begin);
    const std::string s = value.substr(begin, comma - begin);
    char* end = nullptr;
    const long long k = std::strtoll(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || k < 1) {
      std::cerr << "invalid --shots entry '" << s << "'\n";
      std::exit(1);
    }
    shots.push_back(k);
    if (comma == std::string::npos) return shots;
    begin = comma + 1;
  }
}

/// Reads the count flag --`name`; a value below `min` prints an error and
/// exits 1.
inline int64_t GetCount(const util::FlagParser& flags, const std::string& name,
                        int64_t min) {
  const int64_t value = flags.GetInt(name);
  if (value < min) {
    std::cerr << "invalid --" << name << " value '" << value << "'\n";
    std::exit(1);
  }
  return value;
}

/// Builds the experiment config shared by the table benches.  --episodes and
/// --query-size must be >= 1, the other counts >= 0.
inline eval::ExperimentConfig ConfigFromFlags(const util::FlagParser& flags) {
  eval::ExperimentConfig config;
  config.eval_episodes = GetCount(flags, "episodes", 1);
  config.data_scale = flags.GetDouble("scale");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.train.iterations = GetCount(flags, "iterations", 0);
  config.train.verbose = flags.GetBool("verbose");
  config.train.meta_lr = static_cast<float>(flags.GetDouble("meta-lr"));
  // Smaller meta-batches give more outer updates per task seen — the right
  // trade at CPU-scale iteration counts (paper: 8 with convergence-scale runs).
  config.train.meta_batch = 4;
  config.lm_pretrain_steps = GetCount(flags, "lm-pretrain-steps", 0);
  config.eval_query_size = GetCount(flags, "query-size", 1);
  config.train.inner_lr = static_cast<float>(flags.GetDouble("inner-lr"));
  config.train.inner_steps_test = GetCount(flags, "inner-steps-test", 0);
  config.train.inner_steps_train = GetCount(flags, "inner-steps-train", 0);
  return config;
}

/// One scenario of a table grid: its column label (before " <K>-shot") and
/// the builder of its scenario from the corpus scale and seed.
struct GridScenario {
  std::string label;
  std::function<eval::Scenario(double scale, uint64_t seed)> make;
};

/// The sweep tables 2, 3 and 4 share.  For each scenario and each --shots K,
/// scenario-major, it builds the column "<label> <K>-shot", runs every
/// --methods entry on it and prints one "[column] Method: cell" progress line
/// per cell, after the cell's `theta_fnv1a <Method> <column> <hash>` line
/// (see EvaluateHashed).  Returns the table: "Methods", then one column per (scenario, K);
/// one row per method.  `section_of`, when given, names the section of a
/// method's row; each section label is added once, before its first row.
inline eval::Table RunGrid(
    const util::FlagParser& flags, const std::vector<GridScenario>& scenarios,
    const std::function<std::string(eval::MethodId)>& section_of = nullptr) {
  const auto methods = ParseMethods(flags.GetString("methods"));
  const auto shots = ParseShots(flags.GetString("shots"));
  const eval::ExperimentConfig base = ConfigFromFlags(flags);
  std::vector<std::string> headers = {"Methods"};
  std::map<std::string, std::map<std::string, std::string>> cells;  // [method][column]
  for (const GridScenario& scenario : scenarios) {
    for (int64_t k : shots) {
      const std::string column = scenario.label + " " + std::to_string(k) + "-shot";
      headers.push_back(column);
      eval::ExperimentConfig config = base;
      config.k_shot = k;
      eval::ExperimentRunner runner(scenario.make(config.data_scale, config.seed),
                                    config);
      for (eval::MethodId id : methods) {
        const std::string name = eval::MethodName(id);
        const std::unique_ptr<meta::FewShotMethod> method = runner.CreateTrained(id);
        const std::string cell =
            eval::FormatCell(EvaluateHashed(method.get(), runner, name + " " + column).f1);
        cells[name][column] = cell;
        std::cout << "[" << column << "] " << name << ": " << cell << std::endl;
      }
    }
  }
  eval::Table table(headers);
  std::set<std::string> sections;
  for (eval::MethodId id : methods) {
    if (section_of) {
      std::string section = section_of(id);
      if (sections.insert(section).second) table.AddSection(std::move(section));
    }
    const std::string name = eval::MethodName(id);
    std::vector<std::string> row = {name};
    for (size_t c = 1; c < headers.size(); ++c) row.push_back(cells[name][headers[c]]);
    table.AddRow(std::move(row));
  }
  return table;
}

/// The --adaptations flag as grid scenarios: one per SRC:TGT pair, labelled
/// "SRC->TGT" and built by `make(SRC, TGT, scale, seed)`.
inline std::vector<GridScenario> AdaptationScenarios(
    const std::string& value,
    eval::Scenario (*make)(const std::string&, const std::string&, double, uint64_t)) {
  std::vector<GridScenario> scenarios;
  for (const std::string& pair : util::Split(value, ',')) {
    const auto parts = util::Split(pair, ':');
    FEWNER_CHECK(parts.size() == 2, "adaptation '" << pair << "' must be SRC:TGT");
    scenarios.push_back({parts[0] + "->" + parts[1], [=](double scale, uint64_t seed) {
                           return make(parts[0], parts[1], scale, seed);
                         }});
  }
  return scenarios;
}

/// Standard preamble: parse flags or exit; returns false if --help was shown.
inline bool ParseOrDie(util::FlagParser* flags, int argc, char** argv) {
  util::Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags->Usage(argv[0]);
    std::exit(1);
  }
  if (flags->help_requested()) return false;
  if (!flags->GetBool("verbose")) util::SetLogLevel(util::LogLevel::kWarning);
  return true;
}

}  // namespace fewner::bench
