// Diagnostic example: shows what FEWNER's inner loop actually does on a task —
// support loss before/after adapting φ, how far φ moves, and how predictions
// change.  Useful for tuning and for understanding the method.
//
//   ./build/examples/inspect_adaptation [--iterations N] [--inner-steps N] ...

#include <cmath>
#include <iostream>

#include "data/datasets.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "meta/fewner.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace fewner;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddInt("iterations", 60, "meta-training outer iterations");
  flags.AddInt("inner-steps", 8, "test-time inner steps");
  flags.AddInt("episodes", 10, "episodes to inspect");
  flags.AddDouble("inner-lr", 0.1, "inner learning rate");
  flags.AddInt("k-shot", 1, "shots");
  flags.AddBool("verbose", false, "log training");
  util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!flags.GetBool("verbose")) util::SetLogLevel(util::LogLevel::kWarning);

  eval::ExperimentConfig config;
  config.k_shot = flags.GetInt("k-shot");
  config.train.iterations = flags.GetInt("iterations");
  config.train.meta_lr = 0.004f;  // quick-demo outer LR (paper: 0.0008)
  config.train.inner_lr = static_cast<float>(flags.GetDouble("inner-lr"));
  config.train.inner_steps_test = flags.GetInt("inner-steps");
  config.train.verbose = flags.GetBool("verbose");
  config.eval_episodes = flags.GetInt("episodes");

  eval::Scenario scenario = eval::MakeIntraDomainScenario(data::kNne, 0.03, 7);
  eval::ExperimentRunner runner(std::move(scenario), config);
  auto method = runner.CreateTrained(eval::MethodId::kFewner);
  auto* fewner_method = static_cast<meta::Fewner*>(method.get());
  auto* backbone = fewner_method->backbone();
  backbone->SetTraining(false);

  double mean_before = 0, mean_after = 0, mean_phi_norm = 0, mean_f1 = 0;
  int64_t non_o_predictions = 0, total_predictions = 0;
  const int64_t episodes = flags.GetInt("episodes");

  for (int64_t id = 0; id < episodes; ++id) {
    data::Episode episode = runner.eval_sampler().Sample(static_cast<uint64_t>(id));
    if (static_cast<int64_t>(episode.query.size()) > config.eval_query_size) {
      episode.query.resize(static_cast<size_t>(config.eval_query_size));
    }
    models::EncodedEpisode enc = runner.encoder().Encode(episode);

    tensor::Tensor phi0 = backbone->ZeroContext();
    const models::EncodedBatch support = models::PackBatch(enc.support);
    const double before =
        backbone->BatchLoss(support, phi0, enc.valid_tags).item();
    tensor::Tensor phi = meta::Fewner::AdaptContextOn(
        *backbone, enc.support, enc.valid_tags, flags.GetInt("inner-steps"),
        static_cast<float>(flags.GetDouble("inner-lr")), /*create_graph=*/false);
    const double after =
        backbone->BatchLoss(support, phi, enc.valid_tags).item();
    double norm = 0;
    for (float v : phi.data()) norm += static_cast<double>(v) * v;

    auto predictions = method->AdaptAndPredict(enc);
    for (const auto& tags : predictions) {
      for (int64_t tag : tags) {
        ++total_predictions;
        if (tag != text::kOutsideTag) ++non_o_predictions;
      }
    }
    const double f1 = eval::EpisodeF1(enc, predictions);
    mean_before += before;
    mean_after += after;
    mean_phi_norm += std::sqrt(norm);
    mean_f1 += f1;
    std::cout << "episode " << id << ": support loss " << before << " -> " << after
              << "  |phi| " << std::sqrt(norm) << "  F1 " << f1 << "\n";
  }
  std::cout << "\nmeans over " << episodes << " episodes:\n"
            << "  support loss before " << mean_before / episodes << " after "
            << mean_after / episodes << "\n"
            << "  |phi| " << mean_phi_norm / episodes << "\n"
            << "  non-O prediction rate "
            << static_cast<double>(non_o_predictions) /
                   static_cast<double>(total_predictions)
            << "\n"
            << "  F1 " << mean_f1 / episodes << "\n";
  return 0;
}
