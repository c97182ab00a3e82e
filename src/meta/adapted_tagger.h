// AdaptedTagger: an immutable serving snapshot of a FEWNER model adapted to
// one task.
//
// Adaptation (the φ inner loop) is the only part of test-time FEWNER that
// needs gradients, and it runs once per task.  Tagging runs once per sentence,
// forever after.  This type splits the two: its constructor performs the
// inner loop in graph mode, then freezes the result — meta-learned θ by
// pointer, adapted φ as a detached constant — so every subsequent Tag() can
// run under EvalMode, where ops allocate no graph nodes, build no backward
// closures, and write into arena-recycled buffers.
//
// The snapshot holds no graph state at all, and tagging mutates nothing but
// the calling thread's workspace arena, so one AdaptedTagger may serve
// concurrent Tag() calls from many threads (the backbone must not be trained
// concurrently; Backbone::SetTraining(false) is enforced at construction so
// dropout stays off and the forward is deterministic).

#pragma once

#include <vector>

#include "models/backbone.h"
#include "models/encoding.h"
#include "tensor/tensor.h"

namespace fewner::meta {

class Fewner;

/// Frozen (θ, φ*) pair for one task; decodes sentences on the graph-free
/// eval fast path.
class AdaptedTagger {
 public:
  /// Adapts φ on `support` with `inner_steps` gradient steps of size
  /// `inner_lr` through Fewner::AdaptContextOn (paper Eq. 5,
  /// create_graph=false: the support θ-prefix is encoded once, graph-free,
  /// and every inner step runs the φ-suffix only), then freezes.  `backbone`
  /// must outlive the tagger and stays in inference mode afterwards.
  AdaptedTagger(models::Backbone* backbone,
                const std::vector<models::EncodedSentence>& support,
                std::vector<bool> valid_tags, int64_t inner_steps, float inner_lr);

  /// Convenience: adapts on an episode's support set using the method's
  /// test-time inner-loop settings.
  AdaptedTagger(Fewner* method, const models::EncodedEpisode& episode);

  /// Viterbi tag sequence for one sentence: TagAll on a batch of one.
  std::vector<int64_t> Tag(const models::EncodedSentence& sentence) const;

  /// Tags a batch of sentences: one Backbone::DecodeBatch under EvalMode for
  /// the whole batch.  A zero-token sentence gets an empty tag sequence.
  std::vector<std::vector<int64_t>> TagAll(
      const std::vector<models::EncodedSentence>& sentences) const;

  /// The adapted context vector φ* (a detached constant).
  const tensor::Tensor& phi() const { return phi_; }

  const std::vector<bool>& valid_tags() const { return valid_tags_; }

 private:
  const models::Backbone* backbone_;
  tensor::Tensor phi_;
  std::vector<bool> valid_tags_;
};

}  // namespace fewner::meta
