// N-way K-shot task construction for sequence labeling (paper §3.1).
//
// Because a sentence carries an unknown number of entities of entangled
// classes, the support set is built with the paper's greedy-including
// procedure: sentences are sampled and kept only when they add a new class
// ("gain for way") while ways remain open, or raise an under-filled class
// count ("gain for shot").  A final pruning pass enforces the paper's
// minimality property: removing any support sentence leaves some class with
// fewer than K mentions.
//
// Mentions of types outside the episode's N ways are treated as O, and the
// query set is drawn from the remaining sentences that mention at least one of
// the episode's classes.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "util/rng.h"

namespace fewner::data {

/// One N-way K-shot task.
struct Episode {
  /// Entity types of this task; index in this vector is the slot id.
  std::vector<std::string> types;
  std::vector<const Sentence*> support;
  std::vector<const Sentence*> query;
  int64_t n_way() const { return static_cast<int64_t>(types.size()); }
};

/// Samples deterministic episodes from a corpus restricted to an allowed type
/// inventory.  Episode `id` is a pure function of (corpus, allowed types,
/// settings, seed, id) — the paper evaluates all methods on the same fixed
/// list of 1000 tasks by fixing the seed, and so do we.
class EpisodeSampler {
 public:
  EpisodeSampler(const Corpus* corpus, std::vector<std::string> allowed_types,
                 int64_t n_way, int64_t k_shot, int64_t query_size, uint64_t seed);

  /// Builds episode `id`.  Aborts if the corpus cannot support the
  /// configuration (too few types or sentences) after bounded retries.
  Episode Sample(uint64_t id) const;

  int64_t n_way() const { return n_way_; }
  int64_t k_shot() const { return k_shot_; }

 private:
  /// One construction attempt; returns false if the shuffled stream ran out
  /// before reaching N ways with K shots each.
  bool TryBuild(util::Rng* rng, Episode* episode) const;

  const Corpus* corpus_;
  std::vector<std::string> allowed_types_;
  int64_t n_way_;
  int64_t k_shot_;
  int64_t query_size_;
  uint64_t seed_;
  std::vector<const Sentence*> candidates_;
};

/// Maps each entity of `sentence` to its slot in `types` (-1 when the type is
/// not part of the episode).  Helper shared by models and tests.
std::vector<int64_t> SlotsFor(const Sentence& sentence,
                              const std::vector<std::string>& types);

}  // namespace fewner::data
