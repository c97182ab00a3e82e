// Linear-chain conditional random field (paper Eq. 4): models the label
// sequence jointly with learned transition scores on top of per-token emission
// scores.  The negative log-likelihood is fully differentiable (forward
// algorithm in log space), so the meta-gradient flows through it; decoding
// uses Viterbi.
//
// The log-partition log Z is one tensor::FusedOp per call, over the
// validity-masked emissions [B, L, Y], start, transitions and end (the gold
// score stays a handful of tensor ops).  Its definition is the composite: the
// masked log-space forward built from tensor ops, one step per timestep
// (LogPartitionComposite in the .cc), a lane past its length carrying its
// alpha through tensor::CarryFinishedLanes, the exact carry the GRU and BiLSTM
// composites share.  The op reproduces it bit for bit:
//   - the forward kernel runs the composite's float operations in its order;
//   - the first-order backward is one reverse-recursion kernel that writes
//     only the grads the NeedsGrad mask asks for (the emissions for test-time
//     φ adaptation; start/transitions/end too for the meta-gradient and
//     fine-tuned heads), each value the one the composite's eval-mode
//     backward computes, fan-in order and signed zeros included;
//   - under create_graph FusedOp differentiates the composite, so
//     second-order grads (FEWNER's and MAML's inner steps) are the
//     composite's.
// tests/crf_test.cc holds all of it to the composite with memcmp.
//
// Episodes may use a subset of the tag inventory (an N-way task with N smaller
// than the trained maximum), so both the loss and the decoder accept a
// validity mask that excludes unused tags from the partition function and from
// the decoded paths.

#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace fewner::crf {

/// Linear-chain CRF over a fixed tag inventory.
class LinearChainCrf : public nn::Module {
 public:
  explicit LinearChainCrf(int64_t num_tags);

  /// Negative log-likelihood of lane-major gold `tags` given padded emissions
  /// [B, Lmax, num_tags] (`tags.size() == B * Lmax`, padding entries ignored).
  /// If `valid_tags` is non-null it must have num_tags entries, at least one
  /// of them true; invalid tags are excluded from the partition function
  /// (their emissions are crushed).
  /// Returns a [B] tensor whose lane b is bitwise-equal to the same recursion
  /// run on that lane's [lengths[b], num_tags] slice alone: the masked
  /// log-space forward (one fused op, see the file comment) runs one batched
  /// step per timestep with finished lanes carrying alpha through an exact
  /// copy, and the gold score sums per lane in the same double-precision
  /// ascending order as SumAll.  The graph this builds does not grow with
  /// Lmax.  A single sentence is the B=1 call on its [1, L, num_tags]
  /// emissions.
  tensor::Tensor NegLogLikelihoodBatch(const tensor::Tensor& emissions,
                                       const std::vector<int64_t>& tags,
                                       const std::vector<int64_t>& lengths,
                                       const std::vector<bool>* valid_tags =
                                           nullptr) const;

  /// Highest-scoring tag sequence of each lane of padded emissions
  /// [B, Lmax, num_tags], decoded from the lane's first lengths[b] rows alone
  /// (a single sentence is the B=1 call).  A non-null `valid_tags` follows
  /// the NegLogLikelihoodBatch contract; paths use valid tags only.
  std::vector<std::vector<int64_t>> ViterbiBatch(
      const tensor::Tensor& emissions, const std::vector<int64_t>& lengths,
      const std::vector<bool>* valid_tags = nullptr) const;

  int64_t num_tags() const { return num_tags_; }

 private:
  /// Aborts unless `valid_tags` is null or has num_tags entries with at least
  /// one valid tag.  Both entry points run it before reading the mask.
  void CheckValidTags(const std::vector<bool>* valid_tags) const;

  /// Additive [num_tags] mask: 0 for valid tags, a large negative otherwise.
  tensor::Tensor ValidityMask(const std::vector<bool>* valid_tags) const;

  /// The max-product float recurrence: decodes one sentence from a raw
  /// [length, num_tags] emission block.  ViterbiBatch runs it per lane, so a
  /// lane's path never depends on the other lanes.
  std::vector<int64_t> ViterbiCore(const float* emit, int64_t length,
                                   const std::vector<bool>* valid_tags) const;

  int64_t num_tags_;
  tensor::Tensor transitions_;  ///< [from, to]
  tensor::Tensor start_;        ///< [num_tags] score of starting in a tag
  tensor::Tensor end_;          ///< [num_tags] score of ending in a tag
};

}  // namespace fewner::crf
