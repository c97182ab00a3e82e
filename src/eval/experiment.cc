#include "eval/experiment.h"

#include <algorithm>
#include <set>

#include "data/datasets.h"
#include "data/synthetic.h"
#include "meta/fewner.h"
#include "meta/finetune.h"
#include "meta/lm_tagger.h"
#include "meta/maml.h"
#include "meta/protonet.h"
#include "meta/snail.h"
#include "text/hash_embeddings.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fewner::eval {

Scenario MakeIntraDomainScenario(const std::string& dataset, double scale,
                                 uint64_t seed) {
  Scenario scenario;
  scenario.name = dataset;
  data::Corpus corpus = data::MakeDataset(dataset, scale);
  int64_t n_train = 0, n_val = 0, n_test = 0;
  data::IntraDomainSplitSizes(dataset, &n_train, &n_val, &n_test);
  data::TypeSplit split = data::SplitTypes(corpus.entity_types, n_train, n_val,
                                           n_test, util::Mix64(seed ^ 0x5917ull));

  // The paper's non-overlapping partition (§4.2.1): "the entities used for
  // testing do not appear during training".  Sentences mentioning val/test
  // types are therefore excluded from the training side — otherwise those
  // mentions would be visible as O-labeled tokens and the model would be
  // actively taught that novel-type surface patterns are not entities.
  std::set<std::string> held_out(split.val.begin(), split.val.end());
  held_out.insert(split.test.begin(), split.test.end());
  std::set<std::string> test_types(split.test.begin(), split.test.end());

  scenario.source.name = corpus.name + ":train";
  scenario.source.genre = corpus.genre;
  scenario.source.entity_types = split.train;
  scenario.target.name = corpus.name + ":test";
  scenario.target.genre = corpus.genre;
  scenario.target.entity_types = split.test;
  for (auto& sentence : corpus.sentences) {
    bool has_held_out = false;
    bool has_test = false;
    for (const auto& entity : sentence.entities) {
      if (held_out.count(entity.label)) has_held_out = true;
      if (test_types.count(entity.label)) has_test = true;
    }
    if (!has_held_out) {
      scenario.source.sentences.push_back(sentence);
    } else if (has_test) {
      scenario.target.sentences.push_back(std::move(sentence));
    }
    // Sentences with only val-type mentions belong to neither side here
    // (the val split drives hyper-parameter selection, not these tables).
  }
  FEWNER_CHECK(!scenario.source.sentences.empty(), "empty training partition");
  FEWNER_CHECK(!scenario.target.sentences.empty(), "empty test partition");
  scenario.source_types = split.train;
  scenario.target_types = split.test;
  return scenario;
}

Scenario MakeCrossDomainIntraType(const std::string& source_domain,
                                  const std::string& target_domain, double scale,
                                  uint64_t seed) {
  (void)seed;
  Scenario scenario;
  scenario.name = source_domain + "->" + target_domain;
  data::Corpus ace = data::MakeDataset(data::kAce2005, scale);
  scenario.source = ace.FilterDomain(source_domain);
  scenario.source_types = ace.entity_types;
  scenario.target = ace.FilterDomain(target_domain);
  scenario.target_types = ace.entity_types;
  FEWNER_CHECK(!scenario.source.sentences.empty(),
               "no sentences in source domain " << source_domain);
  FEWNER_CHECK(!scenario.target.sentences.empty(),
               "no sentences in target domain " << target_domain);
  return scenario;
}

Scenario MakeCrossDomainCrossType(const std::string& source_dataset,
                                  const std::string& target_dataset, double scale,
                                  uint64_t seed) {
  (void)seed;
  Scenario scenario;
  scenario.name = source_dataset + "->" + target_dataset;
  scenario.source = data::MakeDataset(source_dataset, scale);
  scenario.source_types = scenario.source.entity_types;
  scenario.target = data::MakeDataset(target_dataset, scale);
  scenario.target_types = scenario.target.entity_types;
  return scenario;
}

std::vector<MethodId> AllMethods() {
  return {MethodId::kGpt2,     MethodId::kFlair,    MethodId::kElmo,
          MethodId::kBert,     MethodId::kXlnet,    MethodId::kFineTune,
          MethodId::kProtoNet, MethodId::kMaml,     MethodId::kSnail,
          MethodId::kFewner};
}

std::string MethodName(MethodId id) {
  switch (id) {
    case MethodId::kGpt2:
      return "GPT2";
    case MethodId::kFlair:
      return "Flair";
    case MethodId::kElmo:
      return "ELMo";
    case MethodId::kBert:
      return "BERT";
    case MethodId::kXlnet:
      return "XLNet";
    case MethodId::kFineTune:
      return "FineTune";
    case MethodId::kProtoNet:
      return "ProtoNet";
    case MethodId::kMaml:
      return "MAML";
    case MethodId::kSnail:
      return "SNAIL";
    case MethodId::kFewner:
      return "FewNER";
  }
  return "?";
}

MethodId MethodFromName(const std::string& name) {
  const std::string lower = util::ToLower(name);
  for (MethodId id : AllMethods()) {
    if (util::ToLower(MethodName(id)) == lower) return id;
  }
  FEWNER_CHECK(false, "unknown method '" << name << "'");
  return MethodId::kFewner;
}

ExperimentRunner::ExperimentRunner(Scenario scenario, ExperimentConfig config)
    : scenario_(std::move(scenario)), config_(config) {
  // Vocabularies come from what training-time code can see: the source corpus
  // plus the LM pre-training text.  Target-corpus novelties map to <unk>,
  // which is what makes the character CNN matter for novel entity types.
  text::VocabBuilder builder;
  for (const auto& sentence : scenario_.source.sentences) {
    builder.AddSentence(sentence.tokens);
  }
  auto unlabeled = data::GenerateUnlabeledText(config_.lm_pretrain_sentences,
                                               util::Mix64(config_.seed ^ 0x17ull));
  for (auto& tokens : unlabeled) {
    builder.AddSentence(tokens);
    data::Sentence sentence;
    sentence.tokens = std::move(tokens);
    lm_corpus_.push_back(std::move(sentence));
  }
  word_vocab_ = builder.BuildWordVocab();
  char_vocab_ = builder.BuildCharVocab();

  // The GloVe stand-in: deterministic pseudo-embeddings, fine-tuned later.
  text::HashEmbeddings embeddings(config_.backbone.word_dim);
  word_vectors_ = embeddings.TableFor(word_vocab_);

  const int64_t max_way = std::max(config_.n_way, config_.train_way);
  encoder_ = std::make_unique<models::EpisodeEncoder>(&word_vocab_, &char_vocab_,
                                                      text::NumTags(max_way));

  train_sampler_ = std::make_unique<data::EpisodeSampler>(
      &scenario_.source, scenario_.source_types, config_.train_way, config_.k_shot,
      /*query_size=*/8, util::Mix64(config_.seed ^ util::HashString("train")));
  eval_sampler_ = std::make_unique<data::EpisodeSampler>(
      &scenario_.target, scenario_.target_types, config_.n_way, config_.k_shot,
      config_.eval_query_size,
      util::Mix64(config_.seed ^ util::HashString("eval")));
}

models::BackboneConfig ExperimentRunner::MakeBackboneConfig() const {
  models::BackboneConfig backbone = config_.backbone;
  backbone.word_vocab_size = word_vocab_.size();
  backbone.char_vocab_size = char_vocab_.size();
  backbone.max_tags = text::NumTags(std::max(config_.n_way, config_.train_way));
  backbone.pretrained_word_vectors = &word_vectors_;
  return backbone;
}

std::shared_ptr<models::PretrainedLmEncoder> ExperimentRunner::GetPretrainedLm(
    models::LmKind kind) {
  auto it = lms_.find(kind);
  if (it != lms_.end()) return it->second;

  util::Rng rng(util::Mix64(config_.seed ^ util::HashString(
                                                "lm:" + models::LmKindName(kind))));
  models::LmConfig lm_config;
  auto lm = std::make_shared<models::PretrainedLmEncoder>(kind, lm_config,
                                                          &word_vocab_, &char_vocab_,
                                                          &rng);
  // Pre-train on unlabeled text (the miniature stand-in for "large corpora").
  std::vector<models::EncodedSentence> encoded;
  encoded.reserve(lm_corpus_.size());
  const std::vector<std::string> no_types;
  for (const auto& sentence : lm_corpus_) {
    encoded.push_back(encoder_->EncodeSentence(sentence, no_types));
  }
  FEWNER_LOG(INFO) << "pre-training " << models::LmKindName(kind) << " for "
                   << config_.lm_pretrain_steps << " steps";
  util::Rng pretrain_rng = rng.Fork(0x93ull);
  lm->Pretrain(encoded, config_.lm_pretrain_steps, config_.lm_pretrain_lr,
               &pretrain_rng);
  lms_[kind] = lm;
  return lm;
}

std::unique_ptr<meta::FewShotMethod> ExperimentRunner::CreateTrained(MethodId id) {
  util::Rng rng(util::Mix64(config_.seed ^ util::HashString("method:" +
                                                            MethodName(id))));
  models::BackboneConfig backbone = MakeBackboneConfig();
  std::unique_ptr<meta::FewShotMethod> method;
  switch (id) {
    case MethodId::kGpt2:
    case MethodId::kFlair:
    case MethodId::kElmo:
    case MethodId::kBert:
    case MethodId::kXlnet: {
      const models::LmKind kind = static_cast<models::LmKind>(
          static_cast<int>(id));  // MethodId's first five mirror LmKind order
      method = std::make_unique<meta::LmCrfTagger>(GetPretrainedLm(kind),
                                                   backbone.max_tags, &rng);
      break;
    }
    case MethodId::kFineTune:
      method = std::make_unique<meta::FineTune>(backbone, &rng);
      break;
    case MethodId::kProtoNet:
      method = std::make_unique<meta::ProtoNet>(backbone, &rng);
      break;
    case MethodId::kMaml:
      method = std::make_unique<meta::Maml>(backbone, &rng);
      break;
    case MethodId::kSnail:
      method = std::make_unique<meta::Snail>(backbone, &rng);
      break;
    case MethodId::kFewner:
      method = std::make_unique<meta::Fewner>(backbone, &rng);
      break;
  }
  FEWNER_LOG(INFO) << "training " << method->name() << " on " << scenario_.name
                   << " (" << config_.n_way << "-way " << config_.k_shot << "-shot)";
  method->Train(*train_sampler_, *encoder_, config_.train);
  return method;
}

EvalResult ExperimentRunner::Run(MethodId id) {
  std::unique_ptr<meta::FewShotMethod> method = CreateTrained(id);
  return EvaluateMethod(method.get(), *eval_sampler_, *encoder_,
                        config_.eval_episodes, config_.eval_query_size);
}

}  // namespace fewner::eval
