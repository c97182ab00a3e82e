#include "meta/adapted_tagger.h"

#include "meta/fewner.h"
#include "tensor/eval_mode.h"

namespace fewner::meta {

AdaptedTagger::AdaptedTagger(models::Backbone* backbone,
                             const std::vector<models::EncodedSentence>& support,
                             std::vector<bool> valid_tags, int64_t inner_steps,
                             float inner_lr)
    : backbone_(backbone), valid_tags_(std::move(valid_tags)) {
  FEWNER_CHECK(backbone != nullptr, "AdaptedTagger needs a backbone");
  // Dropout off + deterministic forward, for adaptation and serving alike.
  backbone->SetTraining(false);
  // The inner loop differentiates the support loss w.r.t. φ, so the suffix
  // must run in graph mode — this is the one-off cost the snapshot amortizes
  // away (AdaptContextOn encodes the support θ-prefix once, graph-free, so
  // each step is suffix-sized, not encoder-sized).
  phi_ = Fewner::AdaptContextOn(*backbone, support, valid_tags_, inner_steps,
                                inner_lr, /*create_graph=*/false)
             .Detach();  // plain constant: no grad flag, no graph edges
}

AdaptedTagger::AdaptedTagger(Fewner* method, const models::EncodedEpisode& episode)
    : AdaptedTagger(method->backbone(), episode.support,
                    episode.valid_tags, method->test_inner_steps(),
                    method->inner_lr()) {}

std::vector<int64_t> AdaptedTagger::Tag(
    const models::EncodedSentence& sentence) const {
  return TagAll({sentence}).front();
}

std::vector<std::vector<int64_t>> AdaptedTagger::TagAll(
    const std::vector<models::EncodedSentence>& sentences) const {
  // A zero-token sentence has the empty tag sequence; the rest are tagged as
  // one batch (PackBatch rejects empty lanes), which leaves their tags what
  // they would be without the empty sentences in the request.
  std::vector<size_t> lanes;
  for (size_t i = 0; i < sentences.size(); ++i) {
    if (sentences[i].length() > 0) lanes.push_back(i);
  }
  std::vector<std::vector<int64_t>> tags(sentences.size());
  if (lanes.empty()) return tags;
  std::vector<models::EncodedSentence> nonempty;
  if (lanes.size() < sentences.size()) {
    nonempty.reserve(lanes.size());
    for (size_t i : lanes) nonempty.push_back(sentences[i]);
  }
  // One batched graph-free forward for the whole query set, then per-lane
  // Viterbi — identical tags to decoding each sentence alone (see DESIGN.md
  // §7).  Both dropout layers are identities in this regime; a backbone put
  // back into training since construction would draw masks, so it aborts.
  FEWNER_CHECK(backbone_->CanCachePrefix(),
               "AdaptedTagger::TagAll on a backbone in the training-dropout "
               "regime");
  tensor::EvalMode eval;
  std::vector<std::vector<int64_t>> paths = backbone_->DecodeBatch(
      models::PackBatch(nonempty.empty() ? sentences : nonempty), phi_,
      valid_tags_);
  for (size_t k = 0; k < lanes.size(); ++k) tags[lanes[k]] = std::move(paths[k]);
  return tags;
}

}  // namespace fewner::meta
