#include "inputs.h"

#include <algorithm>

#include "data/synthetic.h"
#include "text/bio.h"

namespace perfbench {

namespace {

data::SyntheticSpec CorpusSpec(uint64_t seed) {
  data::SyntheticSpec spec;
  spec.name = "perfbench";
  spec.genre = "newswire";
  spec.num_types = 8;
  spec.num_sentences = 400;
  spec.mentions_per_sentence = 2.0;
  spec.seed = seed;
  return spec;
}

}  // namespace

World BuildWorld() {
  World world;
  world.corpus = data::GenerateCorpus(CorpusSpec(kCorpusSeed));
  text::VocabBuilder builder;
  for (const auto& sentence : world.corpus.sentences) {
    builder.AddSentence(sentence.tokens);
  }
  world.words = builder.BuildWordVocab();
  world.chars = builder.BuildCharVocab();
  return world;
}

data::Corpus BuildHeldOutCorpus() {
  data::SyntheticSpec spec = CorpusSpec(kHeldOutSeed);
  spec.num_sentences = 1000;
  return data::GenerateCorpus(spec);
}

models::BackboneConfig PaperBackbone(const World& world) {
  models::BackboneConfig config;
  config.word_vocab_size = world.words.size();
  config.char_vocab_size = world.chars.size();
  config.max_tags = text::NumTags(kNWay);
  config.word_dim = 300;
  config.char_dim = 100;
  config.filters_per_width = 50;
  config.hidden_dim = 128;
  config.context_dim = 256;
  return config;
}

models::BackboneConfig CpuBackbone(const World& world) {
  models::BackboneConfig config;
  config.word_vocab_size = world.words.size();
  config.char_vocab_size = world.chars.size();
  config.max_tags = text::NumTags(kNWay);
  return config;
}

TaskStream::TaskStream(const World* world, const models::EpisodeEncoder* encoder,
                       uint64_t seed)
    : encoder_(encoder),
      one_shot_(&world->corpus, world->corpus.entity_types, kNWay, 1, kQuerySize,
                util::Mix64(seed ^ 0xADA1ull)),
      five_shot_(&world->corpus, world->corpus.entity_types, kNWay, 5, kQuerySize,
                 util::Mix64(seed ^ 0xADA5ull)),
      seed_(seed) {}

int64_t TaskStream::Shots(int64_t i) const {
  const uint64_t group = static_cast<uint64_t>(i / 3);
  const int64_t five_shot_at =
      static_cast<int64_t>(util::Mix64(seed_ ^ 0xF125ull ^ (group << 8)) % 3);
  return i % 3 == five_shot_at ? 5 : 1;
}

models::EncodedEpisode TaskStream::Task(int64_t i) const {
  const data::EpisodeSampler& sampler = Shots(i) == 1 ? one_shot_ : five_shot_;
  return encoder_->Encode(sampler.Sample(static_cast<uint64_t>(i)));
}

const std::vector<int64_t>& RequestStream::BatchDeck() {
  static const std::vector<int64_t> deck = [] {
    std::vector<int64_t> sizes;
    for (int64_t b = kMinBatch; b <= kMaxBatch; ++b) sizes.push_back(b);
    return sizes;
  }();
  return deck;
}

RequestStream::RequestStream(int64_t pool_size, int64_t tenants, uint64_t seed)
    : rng_(util::Mix64(seed ^ 0x5E12ull)), tenants_(tenants) {
  order_.resize(static_cast<size_t>(pool_size));
  for (int64_t i = 0; i < pool_size; ++i) order_[static_cast<size_t>(i)] = i;
  rng_.Shuffle(&order_);
  deck_ = BatchDeck();
  deck_pos_ = deck_.size();  // shuffle on first use
}

Request RequestStream::Next() {
  if (deck_pos_ == deck_.size()) {
    rng_.Shuffle(&deck_);
    deck_pos_ = 0;
  }
  const int64_t batch = deck_[deck_pos_++];
  Request request;
  request.tenant = static_cast<int64_t>(rng_.UniformInt(static_cast<uint64_t>(tenants_)));
  request.sentences.reserve(static_cast<size_t>(batch));
  for (int64_t b = 0; b < batch; ++b) {
    request.sentences.push_back(order_[cursor_]);
    cursor_ = (cursor_ + 1) % order_.size();
  }
  return request;
}

uint64_t MetaTrainSamplerSeed(uint64_t seed) { return util::Mix64(seed ^ 0x3E7Aull); }

uint64_t TenantSeed(uint64_t seed) { return util::Mix64(seed ^ 0x7E4Aull); }

}  // namespace perfbench
