// One-sentence calls into the batched CRF API for the CRF unit tests: an
// [L, num_tags] emission block runs as a batch of one, [1, L, num_tags].

#pragma once

#include <cstdint>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "tensor/ops.h"

namespace fewner::crf_testing {

inline tensor::Tensor AsBatch(const crf::LinearChainCrf& crf,
                              const tensor::Tensor& emissions) {
  return tensor::Reshape(emissions,
                         tensor::Shape{1, emissions.shape().dim(0), crf.num_tags()});
}

/// Scalar NLL of `tags`: NegLogLikelihoodBatch at B=1.
inline tensor::Tensor SentenceNll(const crf::LinearChainCrf& crf,
                                  const tensor::Tensor& emissions,
                                  const std::vector<int64_t>& tags,
                                  const std::vector<bool>* valid_tags = nullptr) {
  return tensor::Reshape(
      crf.NegLogLikelihoodBatch(AsBatch(crf, emissions), tags,
                                {emissions.shape().dim(0)}, valid_tags),
      tensor::Shape{});
}

/// Best path: ViterbiBatch at B=1.
inline std::vector<int64_t> SentenceViterbi(const crf::LinearChainCrf& crf,
                                            const tensor::Tensor& emissions,
                                            const std::vector<bool>* valid_tags =
                                                nullptr) {
  return crf.ViterbiBatch(AsBatch(crf, emissions), {emissions.shape().dim(0)},
                          valid_tags)[0];
}

}  // namespace fewner::crf_testing
