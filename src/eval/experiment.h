// Experiment orchestration: builds the paper's three adaptation scenarios,
// owns vocabularies / samplers / pre-trained LMs, and trains + evaluates any
// of the ten methods on identical task lists.  The bench binaries are thin
// flag wrappers around this runner.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "data/episode_sampler.h"
#include "eval/evaluator.h"
#include "meta/method.h"
#include "models/backbone.h"
#include "models/lm_encoder.h"
#include "text/vocab.h"

namespace fewner::eval {

/// A fully specified adaptation problem: train on (source corpus, source
/// types), evaluate on (target corpus, target types).
struct Scenario {
  std::string name;
  data::Corpus source;
  std::vector<std::string> source_types;
  data::Corpus target;
  std::vector<std::string> target_types;
};

/// Paper §4.2: novel types within one dataset (NNE / FG-NER / GENIA).
Scenario MakeIntraDomainScenario(const std::string& dataset, double scale,
                                 uint64_t seed);

/// Paper §4.3: same ACE-2005 types across domains (BC→UN, BN→CTS, NW→WL).
Scenario MakeCrossDomainIntraType(const std::string& source_domain,
                                  const std::string& target_domain, double scale,
                                  uint64_t seed);

/// Paper §4.4: different corpus AND different type space.
Scenario MakeCrossDomainCrossType(const std::string& source_dataset,
                                  const std::string& target_dataset, double scale,
                                  uint64_t seed);

/// The ten methods of Tables 2–4, in table order.
enum class MethodId {
  kGpt2,
  kFlair,
  kElmo,
  kBert,
  kXlnet,
  kFineTune,
  kProtoNet,
  kMaml,
  kSnail,
  kFewner,
};

std::vector<MethodId> AllMethods();
std::string MethodName(MethodId id);
/// Parses a case-insensitive method name; aborts on unknown names.
MethodId MethodFromName(const std::string& name);

/// Everything that knobs an experiment run (CPU-scale defaults; the paper's
/// settings are reachable through the fields noted inline).
struct ExperimentConfig {
  int64_t n_way = 5;        ///< evaluation ways (paper: 5)
  int64_t k_shot = 1;       ///< evaluation shots (paper: 1 or 5)
  int64_t train_way = 5;    ///< training ways (Table 5 ablates 3/10/15)
  int64_t eval_episodes = 30;   ///< paper: 1000
  int64_t eval_query_size = 4;  ///< query sentences per evaluation task
  double data_scale = 0.04;     ///< corpus scale; paper: 1.0
  uint64_t seed = 42;

  models::BackboneConfig backbone;  ///< vocab sizes/max_tags filled by the runner

  meta::TrainConfig train;

  int64_t lm_pretrain_sentences = 300;
  int64_t lm_pretrain_steps = 250;
  float lm_pretrain_lr = 3e-3f;
};

/// Trains and evaluates methods on one scenario with shared vocabularies,
/// samplers and (lazily pre-trained, cached) LM encoders.
class ExperimentRunner {
 public:
  ExperimentRunner(Scenario scenario, ExperimentConfig config);

  /// Builds and trains one method (LM encoders are pre-trained on first use).
  std::unique_ptr<meta::FewShotMethod> CreateTrained(MethodId id);

  /// EvaluateMethod of a trained method on the shared held-out task list.
  EvalResult Evaluate(meta::FewShotMethod* method) const;

  const models::EpisodeEncoder& encoder() const { return *encoder_; }

  /// The backbone configuration with vocabulary sizes, tag inventory and the
  /// word-vector table resolved — what CreateTrained hands to each method.
  /// Exposed so extension methods outside the registry can share the setup.
  models::BackboneConfig ResolvedBackboneConfig() const {
    return MakeBackboneConfig();
  }
  const data::EpisodeSampler& eval_sampler() const { return *eval_sampler_; }
  const data::EpisodeSampler& train_sampler() const { return *train_sampler_; }
  const Scenario& scenario() const { return scenario_; }
  const ExperimentConfig& config() const { return config_; }

 private:
  models::BackboneConfig MakeBackboneConfig() const;
  std::shared_ptr<models::PretrainedLmEncoder> GetPretrainedLm(models::LmKind kind);

  Scenario scenario_;
  ExperimentConfig config_;
  text::Vocab word_vocab_;
  text::Vocab char_vocab_;
  std::unique_ptr<models::EpisodeEncoder> encoder_;
  std::unique_ptr<data::EpisodeSampler> train_sampler_;
  std::unique_ptr<data::EpisodeSampler> eval_sampler_;
  std::map<models::LmKind, std::shared_ptr<models::PretrainedLmEncoder>> lms_;
  std::vector<data::Sentence> lm_corpus_;  ///< unlabeled pre-training sentences
  std::vector<std::vector<float>> word_vectors_;  ///< GloVe stand-in table
};

}  // namespace fewner::eval
