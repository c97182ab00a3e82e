// Shared flag plumbing for the table-reproduction benches.

#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fewner::bench {

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

/// Builds the experiment config shared by the table benches.
inline eval::ExperimentConfig ConfigFromFlags(const util::FlagParser& flags) {
  eval::ExperimentConfig config;
  config.eval_episodes = flags.GetInt("episodes");
  config.data_scale = flags.GetDouble("scale");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.train.iterations = flags.GetInt("iterations");
  config.train.verbose = flags.GetBool("verbose");
  config.train.meta_lr = static_cast<float>(flags.GetDouble("meta-lr"));
  // Smaller meta-batches give more outer updates per task seen — the right
  // trade at CPU-scale iteration counts (paper: 8 with convergence-scale runs).
  config.train.meta_batch = 4;
  config.lm_pretrain_steps = flags.GetInt("lm-pretrain-steps");
  config.eval_query_size = flags.GetInt("query-size");
  config.train.inner_lr = static_cast<float>(flags.GetDouble("inner-lr"));
  config.train.inner_steps_test = flags.GetInt("inner-steps-test");
  config.train.inner_steps_train = flags.GetInt("inner-steps-train");
  return config;
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
