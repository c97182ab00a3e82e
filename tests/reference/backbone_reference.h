// Per-sentence oracles for the batched Backbone (test-only).
//
// The library runs every forward batched and bucketed into lane runs
// (DESIGN.md §7/§8).  These functions run one sentence at a time through the
// same θ-prefix/φ-suffix pair, reached through BackboneTestPeer, so the
// parity suites can require lane b of any batched result to equal the
// sentence alone, bit for bit.  Nothing outside tests/ links them.

#pragma once

#include <cstdint>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fewner::models {

/// The one test-only seam into Backbone's private forward.
class BackboneTestPeer {
 public:
  /// Prefix + Suffix over all of `batch` as ONE padded run (no lane-run
  /// bucketing): emissions [B, Lmax, max_tags], lane b drawing dropout from
  /// lane_rngs[b].
  static tensor::Tensor Emissions(const Backbone& net, const EncodedBatch& batch,
                                  const tensor::Tensor& phi,
                                  const std::vector<util::Rng*>& lane_rngs);

  /// Prefix + Suffix stopped before the emission layer, over all of `batch`
  /// as ONE padded run: hidden states [B, Lmax, 2H] of a kNone backbone.
  static tensor::Tensor Hidden(const Backbone& net, const EncodedBatch& batch,
                               const std::vector<util::Rng*>& lane_rngs);

  static const crf::LinearChainCrf& Crf(const Backbone& net);
};

}  // namespace fewner::models

namespace fewner::reference {

/// The dropout stream Backbone::BatchLoss hands lane `lane` on its `call`-th
/// dropout-drawing call after ReseedDropout(episode), derived from the public
/// dropout_base() by the documented scheme.
util::Rng LaneStream(const models::Backbone& net, uint64_t episode,
                     uint64_t call, uint64_t lane);

/// Emissions [L, max_tags] of `sentence` alone.  Dropout, when the backbone
/// draws it, comes from `rng` (a fixed default stream when null).
tensor::Tensor Emissions(const models::Backbone& net,
                         const models::EncodedSentence& sentence,
                         const tensor::Tensor& phi, util::Rng* rng = nullptr);

/// Hidden states [L, 2H] of `sentence` alone on a kNone backbone — the B=1
/// forward whose rows Backbone::Hidden must reproduce.  Dropout as in
/// Emissions.
tensor::Tensor Hidden(const models::Backbone& net,
                      const models::EncodedSentence& sentence,
                      util::Rng* rng = nullptr);

/// CRF negative log-likelihood of the sentence's gold tags (CrfNll).
tensor::Tensor SentenceLoss(const models::Backbone& net,
                            const models::EncodedSentence& sentence,
                            const tensor::Tensor& phi,
                            const std::vector<bool>& valid_tags,
                            util::Rng* rng = nullptr);

/// Summed task loss as a chain of scalar Adds over sentence losses, sentence
/// i on LaneStream(net, episode, call, i) — what Backbone::BatchLoss must
/// reproduce bitwise on PackBatch(sentences).
tensor::Tensor BatchLoss(const models::Backbone& net,
                         const std::vector<models::EncodedSentence>& sentences,
                         const tensor::Tensor& phi,
                         const std::vector<bool>& valid_tags,
                         uint64_t episode = 0, uint64_t call = 0);

/// Viterbi decode of `sentence` alone (ViterbiBatch at B=1).
std::vector<int64_t> Decode(const models::Backbone& net,
                            const models::EncodedSentence& sentence,
                            const tensor::Tensor& phi,
                            const std::vector<bool>& valid_tags);

/// Emissions [B, Lmax, max_tags] of the whole batch as one padded run, in
/// the dropout-free regime.  Checks padding invariance without the lane-run
/// bucketing the library applies.
tensor::Tensor PaddedEmissions(const models::Backbone& net,
                               const models::EncodedBatch& batch,
                               const tensor::Tensor& phi);

}  // namespace fewner::reference
