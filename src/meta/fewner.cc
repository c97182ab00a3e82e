#include "meta/fewner.h"

#include <functional>
#include <utility>

#include "meta/adapted_tagger.h"
#include "meta/parallel.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"

namespace fewner::meta {

using tensor::Tensor;

namespace {

/// The φ-descent loop (Eq. 5) shared by the cached and uncached paths; only
/// the support-loss forward differs between them.
Tensor DescendPhi(Tensor phi, int64_t steps, float inner_lr, bool create_graph,
                  const std::function<Tensor(const Tensor&)>& support_loss) {
  for (int64_t k = 0; k < steps; ++k) {
    Tensor loss = support_loss(phi);
    // Eq. 5: gradient w.r.t. the previous φ only — θ stays fixed here, but
    // with create_graph the inner gradient keeps its dependence on θ, which
    // is what the outer update differentiates through.  Without it φ comes
    // back a fresh leaf, so graphs do not accumulate across steps.
    std::vector<Tensor> grad = tensor::autodiff::Grad(loss, {phi}, create_graph);
    phi = InnerStep({phi}, grad, inner_lr, create_graph)[0];
  }
  return phi;
}

}  // namespace

Fewner::Fewner(const models::BackboneConfig& config, util::Rng* rng)
    : rng_(rng->Fork(0xFE47ull)) {
  FEWNER_CHECK(config.conditioning != models::Conditioning::kNone,
               "FEWNER requires context-parameter conditioning");
  FEWNER_CHECK(config.context_dim > 0, "FEWNER requires context_dim > 0");
  util::Rng init_rng = rng->Fork(0x1417ull);
  backbone_ = std::make_unique<models::Backbone>(config, &init_rng);
}

Tensor Fewner::AdaptContextOn(const models::Backbone& net,
                              const std::vector<models::EncodedSentence>& support,
                              const std::vector<bool>& valid_tags, int64_t steps,
                              float inner_lr, bool create_graph) {
  // φ starts at zero for every task (paper §3.2.4), and the support set is
  // packed once for all steps.
  const models::EncodedBatch packed = models::PackBatch(support);
  Tensor phi = net.ZeroContext();
  if (steps <= 0) return phi;
  if (net.CanCachePrefix()) {
    // θ is constant within a task, so the dropout-free θ-head runs once and
    // every inner step pays only the φ-suffix.
    models::CachedPrefix prefix;
    if (create_graph) {
      // Meta-training: the prefix is one shared autodiff subgraph every
      // inner-step loss (and, through the φ chain, the query loss) hangs off;
      // Grad's deterministic fan-in sums their contributions at the shared
      // nodes, and the φ-gradients themselves never traverse it (needed-set
      // pruning stops where φ stops being reachable).
      prefix = net.EncodePrefix(packed);
    } else {
      // Test time: build the prefix graph-free on the workspace arena; the
      // escaped feature tensors pin their nodes for as long as the prefix
      // lives, so the graph-mode suffix may consume them as constants.
      tensor::EvalMode eval;
      prefix = net.EncodePrefix(packed);
    }
    return DescendPhi(std::move(phi), steps, inner_lr, create_graph,
                      [&](const Tensor& p) {
                        return net.BatchLossFromPrefix(prefix, p, valid_tags);
                      });
  }
  // Training-mode dropout: masks are keyed per (episode, call, lane) and
  // legitimately differ between steps, so each step re-runs the full forward.
  return DescendPhi(std::move(phi), steps, inner_lr, create_graph,
                    [&](const Tensor& p) {
                      return net.BatchLoss(packed, p, valid_tags);
                    });
}

void Fewner::Train(const data::EpisodeSampler& sampler,
                   const models::EpisodeEncoder& encoder, const TrainConfig& config) {
  test_inner_steps_ = config.inner_steps_test;
  inner_lr_ = config.inner_lr;
  auto query_loss = [&](nn::Module* model, const models::EncodedEpisode& enc) {
    auto* net = static_cast<models::Backbone*>(model);
    Tensor phi = AdaptContextOn(*net, enc.support, enc.valid_tags,
                                config.inner_steps_train, config.inner_lr,
                                /*create_graph=*/!config.first_order);
    // Eq. 6: meta-gradient through the inner updates (second order).  Each
    // task backpropagates separately; summed gradients equal the gradient of
    // the summed loss, at a fraction of the peak memory.
    return TaskLoss{net->BatchLoss(models::PackBatch(enc.query), phi, enc.valid_tags)};
  };
  ParallelMetaBatch batch = BackboneMetaBatch(config.num_threads, backbone_.get());
  RunOuterLoop(config, backbone_.get(), &batch, name(), "query loss",
               GradientTask(sampler, encoder, config, query_loss),
               AdamUpdate(config, backbone_.get(), /*decay_lr=*/true));
}

std::vector<std::vector<int64_t>> Fewner::AdaptAndPredict(
    const models::EncodedEpisode& episode) {
  // θ_Meta stays fixed; only φ adapts (Algorithm 1, adapting procedure).
  // The snapshot adapts in graph mode once, then decodes every query sentence
  // on the graph-free eval path.
  AdaptedTagger tagger(this, episode);
  return tagger.TagAll(episode.query);
}

}  // namespace fewner::meta
