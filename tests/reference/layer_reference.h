// Sentence-at-a-time oracles for the batched layers (test-only).
//
// The library convolves characters and scores CRF paths only in batched form
// (nn::CharCnn::ForwardBatch, crf::LinearChainCrf::NegLogLikelihoodBatch).
// These functions keep the one-word / one-sentence formulations they must
// reproduce bit for bit.  They read the layers' weights through the public
// NamedParameters(), so they share parameters (and any ParameterPatch in
// force) with the layer but none of its forward code.

#pragma once

#include <cstdint>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "nn/char_cnn.h"
#include "tensor/tensor.h"

namespace fewner::reference {

/// One word through the character CNN alone: pad to the widest filter with
/// the reserved id 0, unfold windows (UnfoldTimeBatch at N=1), ReLU(linear)
/// per filter width, max over time.  Returns rank-1 [output_dim].
tensor::Tensor CharCnnWord(const nn::CharCnn& cnn, const std::vector<int64_t>& chars);

/// Negative log-likelihood (scalar) of one sentence's `tags` given its
/// emissions [L, num_tags]: the forward algorithm over hoisted transitionsᵀ
/// plus a gold score from constant selection masks.  Invalid tags in
/// `valid_tags` are crushed out of the partition function.
tensor::Tensor CrfNll(const crf::LinearChainCrf& crf, const tensor::Tensor& emissions,
                      const std::vector<int64_t>& tags,
                      const std::vector<bool>* valid_tags = nullptr);

}  // namespace fewner::reference
