#include "reference/backbone_reference.h"

#include "reference/layer_reference.h"
#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner {
namespace models {

tensor::Tensor BackboneTestPeer::Emissions(
    const Backbone& net, const EncodedBatch& batch, const tensor::Tensor& phi,
    const std::vector<util::Rng*>& lane_rngs) {
  return net.Suffix(batch, net.Prefix(batch, lane_rngs), phi, lane_rngs);
}

tensor::Tensor BackboneTestPeer::Hidden(
    const Backbone& net, const EncodedBatch& batch,
    const std::vector<util::Rng*>& lane_rngs) {
  return net.Suffix(batch, net.Prefix(batch, lane_rngs), tensor::Tensor(),
                    lane_rngs, /*emit=*/false);
}

const crf::LinearChainCrf& BackboneTestPeer::Crf(const Backbone& net) {
  return *net.crf_;
}

}  // namespace models

namespace reference {

using models::BackboneTestPeer;
using tensor::Shape;
using tensor::Tensor;

util::Rng LaneStream(const models::Backbone& net, uint64_t episode,
                     uint64_t call, uint64_t lane) {
  return net.dropout_base().Fork(episode).Fork((call << 32) | lane);
}

Tensor Emissions(const models::Backbone& net,
                 const models::EncodedSentence& sentence, const Tensor& phi,
                 util::Rng* rng) {
  util::Rng fallback;
  const models::EncodedBatch single = models::PackBatch({sentence});
  Tensor emissions = BackboneTestPeer::Emissions(
      net, single, phi, {rng != nullptr ? rng : &fallback});
  return tensor::Reshape(emissions,
                         Shape{sentence.length(), net.config().max_tags});
}

Tensor Hidden(const models::Backbone& net,
              const models::EncodedSentence& sentence, util::Rng* rng) {
  util::Rng fallback;
  const models::EncodedBatch single = models::PackBatch({sentence});
  Tensor hidden = BackboneTestPeer::Hidden(
      net, single, {rng != nullptr ? rng : &fallback});
  return tensor::Reshape(hidden,
                         Shape{sentence.length(), 2 * net.config().hidden_dim});
}

Tensor SentenceLoss(const models::Backbone& net,
                    const models::EncodedSentence& sentence, const Tensor& phi,
                    const std::vector<bool>& valid_tags, util::Rng* rng) {
  return CrfNll(BackboneTestPeer::Crf(net), Emissions(net, sentence, phi, rng),
                sentence.tags, &valid_tags);
}

Tensor BatchLoss(const models::Backbone& net,
                 const std::vector<models::EncodedSentence>& sentences,
                 const Tensor& phi, const std::vector<bool>& valid_tags,
                 uint64_t episode, uint64_t call) {
  Tensor total;
  for (size_t i = 0; i < sentences.size(); ++i) {
    util::Rng stream = LaneStream(net, episode, call, i);
    Tensor loss = SentenceLoss(net, sentences[i], phi, valid_tags, &stream);
    total = total.defined() ? tensor::Add(total, loss) : loss;
  }
  return total;
}

std::vector<int64_t> Decode(const models::Backbone& net,
                            const models::EncodedSentence& sentence,
                            const Tensor& phi,
                            const std::vector<bool>& valid_tags) {
  Tensor emissions = tensor::Reshape(
      Emissions(net, sentence, phi),
      Shape{1, sentence.length(), net.config().max_tags});
  if (!tensor::EvalMode::active()) emissions = emissions.Detach();
  return BackboneTestPeer::Crf(net).ViterbiBatch(emissions, {sentence.length()},
                                                 &valid_tags)[0];
}

Tensor PaddedEmissions(const models::Backbone& net,
                       const models::EncodedBatch& batch, const Tensor& phi) {
  FEWNER_CHECK(net.CanCachePrefix(),
               "PaddedEmissions needs the dropout-free regime");
  return BackboneTestPeer::Emissions(net, batch, phi, {});
}

}  // namespace reference
}  // namespace fewner
