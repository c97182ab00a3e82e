#include "models/encoding.h"

#include <algorithm>

#include "text/bio.h"
#include "util/status.h"

namespace fewner::models {

EncodedBatch PackBatch(const std::vector<EncodedSentence>& sentences) {
  FEWNER_CHECK(!sentences.empty(), "PackBatch of zero sentences");
  EncodedBatch batch;
  batch.batch = static_cast<int64_t>(sentences.size());
  batch.lengths.reserve(sentences.size());
  for (size_t b = 0; b < sentences.size(); ++b) {
    const EncodedSentence& s = sentences[b];
    FEWNER_CHECK(s.length() > 0, "PackBatch on empty sentence");
    // Every lane is copied for length() tokens, so a short tags or char_ids
    // vector would be read out of range.
    FEWNER_CHECK(static_cast<int64_t>(s.tags.size()) == s.length(),
                 "PackBatch lane " << b << " has " << s.tags.size()
                                   << " tags for " << s.length() << " words");
    FEWNER_CHECK(static_cast<int64_t>(s.char_ids.size()) == s.length(),
                 "PackBatch lane " << b << " has " << s.char_ids.size()
                                   << " char sequences for " << s.length()
                                   << " words");
    batch.lengths.push_back(s.length());
    batch.max_len = std::max(batch.max_len, s.length());
  }
  const size_t flat = static_cast<size_t>(batch.batch * batch.max_len);
  batch.word_ids.assign(flat, 0);
  batch.char_ids.assign(flat, {});
  batch.tags.assign(flat, 0);
  for (size_t b = 0; b < sentences.size(); ++b) {
    const EncodedSentence& s = sentences[b];
    const size_t base = b * static_cast<size_t>(batch.max_len);
    for (size_t t = 0; t < s.word_ids.size(); ++t) {
      batch.word_ids[base + t] = s.word_ids[t];
      batch.char_ids[base + t] = s.char_ids[t];
      batch.tags[base + t] = s.tags[t];
    }
  }
  return batch;
}

EpisodeEncoder::EpisodeEncoder(const text::Vocab* word_vocab,
                               const text::Vocab* char_vocab, int64_t max_tags)
    : word_vocab_(word_vocab), char_vocab_(char_vocab), max_tags_(max_tags) {
  FEWNER_CHECK(word_vocab_ != nullptr && char_vocab_ != nullptr,
               "EpisodeEncoder requires vocabularies");
  FEWNER_CHECK(max_tags_ >= 3, "max_tags must cover at least a 1-way tagset");
}

EncodedSentence EpisodeEncoder::EncodeSentence(
    const data::Sentence& sentence, const std::vector<std::string>& types) const {
  EncodedSentence encoded;
  encoded.source = &sentence;
  encoded.word_ids.reserve(sentence.tokens.size());
  encoded.char_ids.reserve(sentence.tokens.size());
  for (const std::string& token : sentence.tokens) {
    encoded.word_ids.push_back(text::WordId(*word_vocab_, token));
    encoded.char_ids.push_back(text::CharIds(*char_vocab_, token));
  }
  encoded.tags = text::SpansToTags(sentence.entities,
                                   data::SlotsFor(sentence, types),
                                   encoded.length());
  return encoded;
}

EncodedEpisode EpisodeEncoder::Encode(const data::Episode& episode) const {
  EncodedEpisode out;
  out.n_way = episode.n_way();
  out.valid_tags = text::ValidTagMask(out.n_way, max_tags_);
  out.support.reserve(episode.support.size());
  for (const data::Sentence* s : episode.support) {
    out.support.push_back(EncodeSentence(*s, episode.types));
  }
  out.query.reserve(episode.query.size());
  for (const data::Sentence* s : episode.query) {
    out.query.push_back(EncodeSentence(*s, episode.types));
  }
  return out;
}

}  // namespace fewner::models
