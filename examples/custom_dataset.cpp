// Using the library on YOUR OWN data: build a data::Corpus by hand (as a
// loader for any real annotated dataset would), construct N-way K-shot
// episodes with the greedy-including sampler, meta-train FEWNER, and tag new
// sentences.  This is the template to follow when plugging in real corpora.
//
//   ./build/examples/custom_dataset

#include <iostream>

#include "data/corpus.h"
#include "data/episode_sampler.h"
#include "eval/evaluator.h"
#include "meta/fewner.h"
#include "text/bio.h"
#include "text/hash_embeddings.h"
#include "text/vocab.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace fewner;  // NOLINT: example brevity

namespace {

/// A miniature hand-written corpus: sports / politics / science sentences with
/// PLAYER, TEAM, POLITICIAN, AGENCY, ELEMENT, UNIT mentions.  A real loader
/// would fill the same structures from its annotated files.
data::Corpus BuildCorpus() {
  data::Corpus corpus;
  corpus.name = "handmade";
  corpus.entity_types = {"PLAYER", "TEAM", "POLITICIAN", "AGENCY", "ELEMENT",
                         "UNIT"};

  struct Proto {
    std::vector<std::string> tokens;
    std::vector<text::Span> entities;
  };
  // Small template pool; the corpus repeats them with distinct entity fills so
  // the sampler has enough sentences per type.
  const std::vector<std::vector<std::string>> players = {
      {"Mikel", "Arron"}, {"Devin", "Kolt"}, {"Jorno"}, {"Tavian", "Reed"}};
  const std::vector<std::vector<std::string>> teams = {
      {"Harbor", "Hawks"}, {"Ridge", "United"}, {"Coral", "Nine"}};
  const std::vector<std::vector<std::string>> politicians = {
      {"Senator", "Vale"}, {"Mayor", "Quin"}, {"Chancellor", "Ost"}};
  const std::vector<std::vector<std::string>> agencies = {
      {"Treasury", "Office"}, {"Transit", "Bureau"}, {"Harbor", "Council"}};
  const std::vector<std::vector<std::string>> elements = {
      {"xenolite"}, {"ferrodine"}, {"crystane"}};
  const std::vector<std::vector<std::string>> units = {
      {"megajoule"}, {"kiloquad"}, {"centivolt"}};

  util::Rng rng(404);
  auto pick = [&](const std::vector<std::vector<std::string>>& pool) {
    return pool[rng.UniformInt(pool.size())];
  };
  auto emit = [&](const std::string& type,
                  const std::vector<std::vector<std::string>>& pool,
                  std::vector<std::string> prefix, std::vector<std::string> suffix) {
    data::Sentence sentence;
    sentence.tokens = std::move(prefix);
    const auto mention = pick(pool);
    const int64_t start = static_cast<int64_t>(sentence.tokens.size());
    for (const auto& token : mention) sentence.tokens.push_back(token);
    sentence.entities.push_back(
        text::Span{start, static_cast<int64_t>(sentence.tokens.size()), type});
    for (auto& token : suffix) sentence.tokens.push_back(std::move(token));
    corpus.sentences.push_back(std::move(sentence));
  };

  for (int round = 0; round < 40; ++round) {
    emit("PLAYER", players, {"the", "crowd", "cheered", "as"},
         {"scored", "again", "."});
    emit("TEAM", teams, {"the"}, {"won", "the", "final", "."});
    emit("POLITICIAN", politicians, {"yesterday"},
         {"promised", "new", "funding", "."});
    emit("AGENCY", agencies, {"the"}, {"published", "the", "report", "."});
    emit("ELEMENT", elements, {"traces", "of"}, {"were", "detected", "."});
    emit("UNIT", units, {"the", "probe", "drew", "one"}, {"of", "power", "."});
  }
  return corpus;
}

}  // namespace

int main() {
  util::SetLogLevel(util::LogLevel::kWarning);

  // 1. Your corpus (here: handmade; normally loaded from disk).
  data::Corpus corpus = BuildCorpus();
  std::cout << "Corpus: " << corpus.sentences.size() << " sentences, "
            << corpus.MentionCount() << " mentions, "
            << corpus.entity_types.size() << " types\n";

  // 2. Vocabularies and encoder.
  text::VocabBuilder builder;
  for (const auto& sentence : corpus.sentences) builder.AddSentence(sentence.tokens);
  text::Vocab words = builder.BuildWordVocab();
  text::Vocab chars = builder.BuildCharVocab();
  const int64_t n_way = 3;
  models::EpisodeEncoder encoder(&words, &chars, text::NumTags(n_way));

  // 3. Episode sampler: 3-way 1-shot tasks via the paper's greedy construction.
  data::EpisodeSampler sampler(&corpus, corpus.entity_types, n_way, 1, 4, 99);
  data::Episode preview = sampler.Sample(0);
  std::cout << "Sample task types:";
  for (const auto& type : preview.types) std::cout << " " << type;
  std::cout << " (" << preview.support.size() << " support sentences)\n";

  // 4. Configure FEWNER and meta-train.
  models::BackboneConfig config;
  config.word_vocab_size = words.size();
  config.char_vocab_size = chars.size();
  config.word_dim = 16;
  config.hidden_dim = 24;
  config.context_dim = 16;
  config.max_tags = text::NumTags(n_way);
  text::HashEmbeddings embeddings(config.word_dim);
  auto table = embeddings.TableFor(words);
  config.pretrained_word_vectors = &table;

  util::Rng rng(7);
  meta::Fewner fewner(config, &rng);
  meta::TrainConfig train;
  train.iterations = 40;
  train.meta_lr = 0.004f;  // quick-demo outer LR (paper: 0.0008)
  train.meta_batch = 4;
  fewner.Train(sampler, encoder, train);

  // 5. Evaluate on fresh tasks.
  double mean_f1 = 0;
  const int64_t eval_episodes = 10;
  for (int64_t id = 0; id < eval_episodes; ++id) {
    data::Episode episode = sampler.Sample(1000 + static_cast<uint64_t>(id));
    models::EncodedEpisode enc = encoder.Encode(episode);
    mean_f1 += eval::EpisodeF1(enc, fewner.AdaptAndPredict(enc));
  }
  std::cout << "Mean F1 over " << eval_episodes
            << " unseen 3-way 1-shot tasks: " << 100.0 * mean_f1 / eval_episodes
            << "%\n";

  // 6. Tag one query sentence to show the end-user API.
  data::Episode episode = sampler.Sample(2024);
  models::EncodedEpisode enc = encoder.Encode(episode);
  auto predictions = fewner.AdaptAndPredict(enc);
  const auto& sentence = enc.query[0];
  std::cout << "\nTagged: ";
  for (int64_t t = 0; t < sentence.length(); ++t) {
    std::cout << sentence.source->tokens[static_cast<size_t>(t)];
    const int64_t tag = predictions[0][static_cast<size_t>(t)];
    if (tag != text::kOutsideTag) {
      std::cout << "/" << episode.types[static_cast<size_t>(text::SlotOfTag(tag))];
    }
    std::cout << " ";
  }
  std::cout << "\n";
  return 0;
}
