// Numeric encoding of sentences and episodes for the neural models.

#pragma once

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "data/episode_sampler.h"
#include "text/vocab.h"

namespace fewner::models {

/// A sentence resolved to word ids, per-word character ids, and episode tags.
struct EncodedSentence {
  std::vector<int64_t> word_ids;
  std::vector<std::vector<int64_t>> char_ids;
  std::vector<int64_t> tags;  ///< BIO slot tags under the episode's type order
  const data::Sentence* source = nullptr;

  int64_t length() const { return static_cast<int64_t>(word_ids.size()); }
};

/// An episode with all sentences encoded and the tag-validity mask resolved.
struct EncodedEpisode {
  std::vector<EncodedSentence> support;
  std::vector<EncodedSentence> query;
  int64_t n_way = 0;
  std::vector<bool> valid_tags;  ///< mask over the model's max_tags inventory
};

/// A padded, length-masked batch of sentences in `[B, Lmax]` layout — the unit
/// of work for the batch-first pipeline (Backbone::BatchLoss and friends).
/// Lane b occupies flat positions [b*max_len, b*max_len + lengths[b]); the
/// tail of each lane is padding (word id 0, empty char sequence, tag 0) that
/// every consumer masks by `lengths`.
struct EncodedBatch {
  int64_t batch = 0;                            ///< B, number of lanes
  int64_t max_len = 0;                          ///< Lmax, padded length
  std::vector<int64_t> lengths;                 ///< [B] real sentence lengths
  std::vector<int64_t> word_ids;                ///< [B * Lmax], pad id 0
  std::vector<std::vector<int64_t>> char_ids;   ///< [B * Lmax], pad token empty
  std::vector<int64_t> tags;                    ///< [B * Lmax], pad tag 0

  int64_t flat_size() const { return batch * max_len; }
};

/// Packs sentences into a padded batch, lane i = sentences[i].  Pure layout —
/// lane order is the caller's sentence order, so a per-lane consumer sees
/// exactly the same token/tag streams as the sentence-at-a-time path.
EncodedBatch PackBatch(const std::vector<EncodedSentence>& sentences);

/// Encodes sentences/episodes against fixed vocabularies.  Word lookup is
/// lowercased, characters are cased (paper §4.1.3); test-time words missing
/// from the training vocabulary map to <unk>, which is what makes the
/// character CNN load-bearing for novel entity types.
class EpisodeEncoder {
 public:
  EpisodeEncoder(const text::Vocab* word_vocab, const text::Vocab* char_vocab,
                 int64_t max_tags);

  EncodedSentence EncodeSentence(const data::Sentence& sentence,
                                 const std::vector<std::string>& types) const;

  EncodedEpisode Encode(const data::Episode& episode) const;

  int64_t max_tags() const { return max_tags_; }

 private:
  const text::Vocab* word_vocab_;
  const text::Vocab* char_vocab_;
  int64_t max_tags_;
};

}  // namespace fewner::models
