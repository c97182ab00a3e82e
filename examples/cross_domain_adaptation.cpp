// Cross-domain adaptation example (the paper's §4.3 scenario): meta-train
// FEWNER on ACE-2005 Broadcast News (BN) and adapt to Conversational
// Telephone Speech (CTS) — same entity types, different domain.  Also runs the
// FineTune baseline on the identical task list to show the adaptation gap.
//
//   ./build/examples/cross_domain_adaptation [--source BN --target CTS] ...

#include <iostream>

#include "data/datasets.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/per_type.h"
#include "eval/reporting.h"
#include "meta/adapted_tagger.h"
#include "meta/fewner.h"
#include "text/bio.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace fewner;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("source", "BN", "source ACE-2005 domain (BC/BN/CTS/NW/UN/WL)");
  flags.AddString("target", "CTS", "target ACE-2005 domain");
  flags.AddInt("episodes", 15, "held-out evaluation episodes");
  flags.AddInt("iterations", 60, "training outer iterations");
  flags.AddInt("k-shot", 1, "shots per class");
  flags.AddBool("verbose", false, "log training losses");
  util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!flags.GetBool("verbose")) util::SetLogLevel(util::LogLevel::kWarning);

  eval::ExperimentConfig config;
  config.k_shot = flags.GetInt("k-shot");
  config.eval_episodes = flags.GetInt("episodes");
  config.train.iterations = flags.GetInt("iterations");
  config.train.meta_lr = 0.004f;  // quick-demo outer LR (paper: 0.0008)
  config.train.verbose = flags.GetBool("verbose");

  eval::Scenario scenario = eval::MakeCrossDomainIntraType(
      flags.GetString("source"), flags.GetString("target"), config.data_scale,
      config.seed);
  std::cout << "Scenario " << scenario.name << ": "
            << scenario.source.sentences.size() << " source sentences, "
            << scenario.target.sentences.size() << " target sentences, "
            << scenario.source_types.size() << " shared entity types\n\n";

  eval::ExperimentRunner runner(std::move(scenario), config);
  eval::Table table({"Method", "5-way " + std::to_string(config.k_shot) + "-shot"});
  std::unique_ptr<meta::FewShotMethod> fewner;
  for (eval::MethodId id : {eval::MethodId::kFineTune, eval::MethodId::kFewner}) {
    auto method = runner.CreateTrained(id);
    eval::EvalResult result = runner.Evaluate(method.get());
    table.AddRow({result.method, eval::FormatCell(result.f1)});
    if (id == eval::MethodId::kFewner) fewner = std::move(method);
  }
  std::cout << table.Render()
            << "\nFEWNER adapts a low-dimensional context vector per task; "
               "FineTune has no meta-learned adaptation strategy.\n";

  // Per-type breakdown for FEWNER (aggregated by type name across episodes).
  eval::PerTypeScorer scorer;
  for (int64_t id = 0; id < config.eval_episodes; ++id) {
    data::Episode episode = runner.eval_sampler().Sample(static_cast<uint64_t>(id));
    if (static_cast<int64_t>(episode.query.size()) > config.eval_query_size) {
      episode.query.resize(static_cast<size_t>(config.eval_query_size));
    }
    models::EncodedEpisode enc = runner.encoder().Encode(episode);
    scorer.AddEpisode(enc, episode.types, fewner->AdaptAndPredict(enc));
  }
  std::cout << "\nFEWNER per-type breakdown (hardest types first):\n"
            << scorer.Report();

  // Deployment shape: adapt once on the target-domain support set, freeze
  // (θ, φ*) into an AdaptedTagger, and serve every query sentence in one
  // padded batched pass (DESIGN.md §7) — identical tags to tagging them one
  // at a time.
  data::Episode episode = runner.eval_sampler().Sample(0);
  models::EncodedEpisode enc = runner.encoder().Encode(episode);
  meta::AdaptedTagger tagger(static_cast<meta::Fewner*>(fewner.get()), enc);
  size_t entity_tokens = 0, total_tokens = 0;
  for (const auto& tags : tagger.TagAll(enc.query)) {
    for (int64_t tag : tags) {
      total_tokens += 1;
      if (tag != text::kOutsideTag) entity_tokens += 1;
    }
  }
  std::cout << "\nBatched serving on " << flags.GetString("target") << ": "
            << enc.query.size() << " query sentences in one pass, "
            << entity_tokens << "/" << total_tokens
            << " tokens tagged as entities\n";
  return 0;
}
