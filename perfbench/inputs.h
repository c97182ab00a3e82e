// The measured system's fixed parts and the workload inputs drawn from a seed.
//
// Corpus, vocabulary and θ's init seed are constants, so every workload seed
// measures the same model; the seed only chooses which episodes, tenants,
// request sizes and sentences the client sends.

#pragma once

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "data/episode_sampler.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace perfbench {

namespace data = fewner::data;
namespace models = fewner::models;
namespace nn = fewner::nn;
namespace tensor = fewner::tensor;
namespace text = fewner::text;
namespace util = fewner::util;

inline constexpr uint64_t kCorpusSeed = 0xC0A9115ull;
inline constexpr uint64_t kHeldOutSeed = 0x4E1D0077ull;
inline constexpr uint64_t kThetaSeed = 0x7E7A5EEDull;
inline constexpr int64_t kNWay = 5;        ///< paper episodes are 5-way
inline constexpr int64_t kQuerySize = 6;   ///< query sentences per served task
inline constexpr float kInnerLr = 0.1f;    ///< α (paper: 0.1)
inline constexpr int64_t kTestInnerSteps = 8;  ///< paper's test-time inner steps

/// Labeled corpus the tasks and training episodes are drawn from, and the
/// vocabularies every backbone is sized by.
struct World {
  data::Corpus corpus;
  text::Vocab words;
  text::Vocab chars;
};

World BuildWorld();

/// Unlabeled-at-serve-time text the tag_stream tenants tag: a second corpus of
/// the same genre, so its words are partly out of vocabulary, as real
/// traffic is.
data::Corpus BuildHeldOutCorpus();

/// Paper-scale backbone (word 300, char 100, 50 filters/width, hidden 128,
/// context 256) — the model one serves.
models::BackboneConfig PaperBackbone(const World& world);

/// BackboneConfig's CPU-scale defaults (hidden 48, dropout 0.3).
models::BackboneConfig CpuBackbone(const World& world);

/// New-tenant tasks for adapt_serve: task i is a fresh 5-way episode with
/// kQuerySize queries.  K varies: every group of three consecutive tasks holds
/// two 1-shot tasks and one 5-shot task in seeded order, so the latency median
/// falls inside the 1-shot mode instead of between the two modes.  Task i is
/// a pure function of (seed, i).
class TaskStream {
 public:
  TaskStream(const World* world, const models::EpisodeEncoder* encoder,
             uint64_t seed);

  int64_t Shots(int64_t i) const;
  models::EncodedEpisode Task(int64_t i) const;

 private:
  const models::EpisodeEncoder* encoder_;
  data::EpisodeSampler one_shot_;
  data::EpisodeSampler five_shot_;
  uint64_t seed_;
};

/// One tag_stream request: which tenant, and which held-out sentences
/// (indices into the serving pool, in arrival order).
struct Request {
  int64_t tenant = 0;
  std::vector<int64_t> sentences;

  bool operator==(const Request& other) const {
    return tenant == other.tenant && sentences == other.sentences;
  }
};

/// Seeded request generator.  Batch sizes are dealt from a shuffled deck
/// holding every size from 1 to 32 once: a uniform mix over the range, with
/// no size weighted above another, so every whole deck carries the same mix
/// whatever the seed.  Sentences are consumed from a seeded permutation of the
/// pool in arrival order (not length-sorted), wrapping around.
class RequestStream {
 public:
  static constexpr int64_t kMinBatch = 1;
  static constexpr int64_t kMaxBatch = 32;

  RequestStream(int64_t pool_size, int64_t tenants, uint64_t seed);

  Request Next();

  /// The request sizes one deck holds: kMinBatch..kMaxBatch, once each.
  static const std::vector<int64_t>& BatchDeck();

 private:
  util::Rng rng_;
  int64_t tenants_;
  std::vector<int64_t> order_;
  size_t cursor_ = 0;
  std::vector<int64_t> deck_;
  size_t deck_pos_ = 0;
};

/// Sampler seed of the meta_train episode stream.
uint64_t MetaTrainSamplerSeed(uint64_t seed);

/// Seed of the tag_stream tenants' support sets (disjoint from its requests).
uint64_t TenantSeed(uint64_t seed);

}  // namespace perfbench
