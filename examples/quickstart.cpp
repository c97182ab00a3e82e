// Quickstart: meta-train FEWNER on novel-type episodes from the synthetic NNE
// corpus, adapt to one held-out 5-way 1-shot task, and tag its query
// sentences.  Exercises the whole public API end to end in under a minute.
//
//   ./build/examples/quickstart [--episodes N] [--iterations N] [--verbose]
//                               [--checkpoint PATH]

#include <iostream>

#include "data/datasets.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "meta/adapted_tagger.h"
#include "meta/fewner.h"
#include "models/encoding.h"
#include "nn/serialization.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace fewner;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddInt("episodes", 20, "held-out evaluation episodes");
  flags.AddInt("iterations", 30, "meta-training outer iterations");
  flags.AddBool("verbose", false, "log training losses");
  flags.AddString("checkpoint", "/tmp/fewner_quickstart.ckpt",
                  "where to save the meta-trained parameters");
  util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!flags.GetBool("verbose")) util::SetLogLevel(util::LogLevel::kWarning);

  // 1. An intra-domain cross-type scenario on (synthetic) NNE: meta-train on
  //    52 entity types, evaluate on 15 never-seen types.
  eval::Scenario scenario = eval::MakeIntraDomainScenario(data::kNne, 0.03, 7);
  std::cout << "Scenario: " << scenario.name << " — train types "
            << scenario.source_types.size() << ", novel test types "
            << scenario.target_types.size() << ", sentences "
            << scenario.source.sentences.size() << "\n";

  // 2. Configure and run FEWNER.
  eval::ExperimentConfig config;
  config.eval_episodes = flags.GetInt("episodes");
  config.train.iterations = flags.GetInt("iterations");
  // Quick-demo outer LR; the paper's 0.0008 assumes convergence-scale runs.
  config.train.meta_lr = 0.004f;
  config.train.verbose = flags.GetBool("verbose");
  eval::ExperimentRunner runner(std::move(scenario), config);

  auto method = runner.CreateTrained(eval::MethodId::kFewner);
  eval::EvalResult result =
      eval::EvaluateMethod(method.get(), runner.eval_sampler(), runner.encoder(),
                           config.eval_episodes, config.eval_query_size);
  std::cout << "\nFEWNER on " << config.eval_episodes
            << " held-out 5-way 1-shot tasks: F1 = " << eval::FormatCell(result.f1)
            << "\n\n";

  // 3. Show one adapted task in detail: support sentences, then predictions.
  data::Episode episode = runner.eval_sampler().Sample(0);
  models::EncodedEpisode enc = runner.encoder().Encode(episode);
  std::cout << "Task types:";
  for (size_t i = 0; i < episode.types.size(); ++i) {
    std::cout << " [slot " << i << "] " << episode.types[i];
  }
  std::cout << "\n\nPredicted query tags (gold in parentheses where different):\n";
  auto predictions = method->AdaptAndPredict(enc);
  for (size_t q = 0; q < enc.query.size() && q < 3; ++q) {
    const auto& sentence = enc.query[q];
    for (int64_t t = 0; t < sentence.length(); ++t) {
      const int64_t predicted = predictions[q][static_cast<size_t>(t)];
      const int64_t gold = sentence.tags[static_cast<size_t>(t)];
      std::cout << sentence.source->tokens[static_cast<size_t>(t)];
      if (predicted != text::kOutsideTag || gold != text::kOutsideTag) {
        std::cout << "/" << text::TagName(predicted);
        if (gold != predicted) std::cout << "(" << text::TagName(gold) << ")";
      }
      std::cout << " ";
    }
    std::cout << "\n";
  }

  // 4. Serve the adapted model.  AdaptedTagger freezes (θ_Meta, φ*) into a
  //    snapshot whose tagging runs on the graph-free eval fast path: no
  //    autodiff bookkeeping, buffers recycled from a per-thread arena.  This
  //    is the type to hold on to when tagging sentences for one task.
  //    TagAll packs the whole batch into one padded [B, Lmax] pipeline
  //    (DESIGN.md §7) — identical tags to sentence-at-a-time Tag(), one
  //    forward instead of B.
  auto* fewner_method = static_cast<meta::Fewner*>(method.get());
  meta::AdaptedTagger tagger(fewner_method, enc);
  size_t entity_tokens = 0, total_tokens = 0;
  for (const auto& tags : tagger.TagAll(enc.query)) {
    for (int64_t tag : tags) {
      total_tokens += 1;
      if (tag != text::kOutsideTag) entity_tokens += 1;
    }
  }
  std::cout << "\nAdaptedTagger served " << enc.query.size()
            << " query sentences in one batched graph-free pass: "
            << entity_tokens << "/" << total_tokens
            << " tokens tagged as entities\n";

  // 5. The served bits.  At a small budget every tag is O, so the tags above
  //    cannot show a change in the serving path.  One `serve_fnv1a` line
  //    hashes φ* and the real rows of the query emissions, computed as
  //    TagAll computes them (graph-free, from the θ-prefix); padding rows are
  //    unspecified and left out.
  {
    tensor::EvalMode eval;
    const models::Backbone& net = *fewner_method->backbone();
    const models::EncodedBatch batch = models::PackBatch(enc.query);
    tensor::Tensor emissions = net.EmissionsFromPrefix(net.EncodePrefix(batch), tagger.phi());
    std::vector<int64_t> real_rows;
    for (int64_t b = 0; b < batch.batch; ++b) {
      for (int64_t t = 0; t < batch.lengths[static_cast<size_t>(b)]; ++t) {
        real_rows.push_back(b * batch.max_len + t);
      }
    }
    tensor::Tensor real = tensor::IndexSelectRows(
        tensor::Reshape(emissions, tensor::Shape{batch.flat_size(), emissions.shape().dim(2)}),
        real_rows);
    std::cout << "serve_fnv1a " << eval::Fnv1aHex({tagger.phi(), real}) << "\n";
  }

  // 6. Persist θ_Meta (Algorithm 1's training output) for later adaptation.
  const std::string checkpoint = flags.GetString("checkpoint");
  util::Status save_status =
      nn::SaveParameters(fewner_method->backbone(), checkpoint);
  std::cout << "\nSaved meta-trained parameters to " << checkpoint << " ("
            << save_status.ToString() << ")\n";
  return 0;
}
