// CNN-BiGRU-CRF sequence-labeling backbone (paper Fig. 3) with optional
// context-parameter conditioning (paper §3.2.4).
//
// The backbone owns all task-independent parameters θ.  The task context φ is
// *not* a parameter of this module: forward methods take it as an explicit
// tensor so the FEWNER inner loop can thread freshly adapted φ_k values
// through the network functionally (keeping the meta-graph differentiable).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "models/encoding.h"
#include "nn/char_cnn.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "util/rng.h"

namespace fewner::models {

/// Where/how φ conditions the backbone (paper Fig. 4).
enum class Conditioning {
  kNone,    ///< baselines without context parameters
  kConcat,  ///< method A: concatenate φ to each token's BiGRU input
  kFilm,    ///< method B (default): FiLM on the BiGRU output
};

/// Context-encoder choice.  The paper picks BiGRU for its cost/quality
/// trade-off (§3.2.2); BiLSTM is the classic alternative and is ablated in
/// bench/ablation_encoder.
enum class EncoderKind {
  kBiGru,
  kBiLstm,
};

/// Hyper-parameters of the backbone.  Defaults are the CPU-scale profile; the
/// paper-scale values are noted inline.
struct BackboneConfig {
  int64_t word_vocab_size = 0;
  int64_t char_vocab_size = 0;
  int64_t word_dim = 32;             ///< paper: 300 (GloVe)
  int64_t char_dim = 12;             ///< paper: 100
  std::vector<int64_t> filter_widths = {2, 3, 4};
  int64_t filters_per_width = 8;     ///< paper: 50 (150 total)
  int64_t hidden_dim = 48;           ///< paper: 128
  EncoderKind encoder = EncoderKind::kBiGru;
  int64_t max_tags = 11;             ///< 2 * max_way + 1
  int64_t context_dim = 96;          ///< |φ|; paper: 256 (= 2x hidden there)
  Conditioning conditioning = Conditioning::kFilm;
  float dropout = 0.3f;              ///< paper: 0.3
  bool use_char_cnn = true;          ///< ablation: remove character CNN
  /// Optional pre-computed word vectors (the GloVe stand-in; see
  /// text::HashEmbeddings).  Must outlive construction; the table remains
  /// trainable afterwards, as the paper fine-tunes GloVe.
  const std::vector<std::vector<float>>* pretrained_word_vectors = nullptr;
};

/// θ-only encoder features for one batch, computed once and reused across
/// every φ a task tries (paper §3.2.4: adaptation touches only φ, so the
/// pre-conditioning pipeline is constant within a task).  The split point
/// depends on where φ enters: after the BiGRU for kFilm (features are the
/// [.., 2H] hidden states), after the token concat for kConcat (features are
/// the [.., word+char] inputs the BiGRU has not yet seen), and after the
/// BiGRU for kNone (the suffix is emission+CRF only).
///
/// Runs mirror the LaneRuns partition BatchLoss/DecodeBatch bucket with, so
/// suffix results fold back bitwise-identically to the uncached paths.
///
/// A prefix is pinned to the θ that produced it via `param_version`; every
/// consumer re-derives the backbone's current version and aborts on mismatch,
/// making stale-cache use impossible rather than merely discouraged.
struct CachedPrefix {
  struct Run {
    EncodedBatch batch;       ///< this run's lanes, padded to the run max
    tensor::Tensor features;  ///< [count, run_max_len, D] θ-only features
  };
  std::vector<Run> runs;      ///< contiguous, ascending lane order
  int64_t batch = 0;          ///< total lanes across all runs
  int64_t max_len = 0;        ///< longest lane (EmissionsFromPrefix pads to it)
  Conditioning conditioning = Conditioning::kNone;
  uint64_t param_version = 0; ///< Backbone::ParameterVersion() at build time

  bool defined() const { return !runs.empty(); }
};

/// The θ network: input representation + context encoder + tag decoder.
class Backbone : public nn::Module {
 public:
  Backbone(const BackboneConfig& config, util::Rng* rng);

  /// Hidden states [Σ lengths, 2H] of every real token, lanes in order: the
  /// lane-run walk stopped before the emission layer, each run's real rows
  /// gathered with IndexSelectRows.  The token features ProtoNet, MatchingNet
  /// and SNAIL read; only a kNone backbone (no φ) has them.  Dropout is drawn
  /// exactly as in BatchLoss, so lane b's rows equal that sentence alone on
  /// its (episode, call, b) stream.
  tensor::Tensor Hidden(const EncodedBatch& batch) const;

  /// Summed CRF negative log-likelihood over all lanes — the task loss L_T
  /// of Eq. 5/6 (the paper defines L = -Σ p(y|h)).  Lane b draws dropout
  /// from `dropout_base().Fork(episode).Fork((call << 32) | b)`, where
  /// `episode` is the last ReseedDropout id (0 before any) and `call` counts
  /// the dropout-drawing BatchLoss/DecodeBatch/Hidden calls since.  Lane
  /// NLLs are folded in lane order with left-associated scalar float adds, so
  /// the total is bitwise-equal to adding per-sentence losses one at a time.
  /// This is the inner-loop path; second-order meta-gradients flow through it.
  tensor::Tensor BatchLoss(const EncodedBatch& batch, const tensor::Tensor& phi,
                           const std::vector<bool>& valid_tags) const;

  /// Batched Viterbi decode of each lane's real prefix.  Lane b's tags are
  /// identical to decoding that sentence alone.
  std::vector<std::vector<int64_t>> DecodeBatch(
      const EncodedBatch& batch, const tensor::Tensor& phi,
      const std::vector<bool>& valid_tags) const;

  /// Whether the θ-prefix may be computed once and reused: true when the
  /// prefix draws no dropout (inference mode or dropout == 0).  In training
  /// mode with dropout on, masks are keyed per (episode, call, lane) and
  /// legitimately differ between inner steps, so a shared prefix would change
  /// the model being trained — callers must fall back to per-step forwards.
  bool CanCachePrefix() const;

  /// Order-sensitive fingerprint of every parameter slot's (node id, mutation
  /// version).  Changes whenever θ may have changed: in-place optimizer steps
  /// bump the node version, slot replacement (ParameterPatch, fresh leaves)
  /// swaps in a new node id.  Cheap enough to recompute on every cached call.
  uint64_t ParameterVersion() const;

  /// Runs the θ-prefix once over `batch`, bucketed exactly like BatchLoss.
  /// Aborts unless CanCachePrefix() — a cached prefix must be dropout-free —
  /// and, like every uncached entry point, on a malformed batch: lengths
  /// must hold B entries in [1, max_len], and word_ids, char_ids and tags
  /// B·max_len each.
  /// Graph-mode callers get a differentiable shared subgraph (the
  /// create_graph meta-training regime); EvalMode callers get arena-backed
  /// constants that stay valid as long as the CachedPrefix holds them.
  CachedPrefix EncodePrefix(const EncodedBatch& batch) const;

  /// Task loss from a cached prefix — bitwise-equal to BatchLoss(batch, ...)
  /// in the cacheable regime (identical suffix ops on identical values; the
  /// dropout layers are identities there).
  tensor::Tensor BatchLossFromPrefix(const CachedPrefix& prefix,
                                     const tensor::Tensor& phi,
                                     const std::vector<bool>& valid_tags) const;

  /// Batched emission scores [B, Lmax, max_tags] from a cached prefix.  Lane
  /// b's real rows are bitwise-equal to that sentence's emissions alone;
  /// padding rows are zero.
  tensor::Tensor EmissionsFromPrefix(const CachedPrefix& prefix,
                                     const tensor::Tensor& phi) const;

  /// Fresh zero context vector (requires_grad, ready for inner-loop descent).
  /// Undefined tensor when conditioning is kNone.
  tensor::Tensor ZeroContext() const;

  const BackboneConfig& config() const { return config_; }
  nn::Embedding* word_embedding() { return word_embedding_.get(); }
  crf::LinearChainCrf* crf() { return crf_.get(); }

  /// Token input dimension fed to the BiGRU (word + char [+ φ for kConcat]).
  int64_t token_input_dim() const;

  /// Re-forks the dropout stream as a pure function of (dropout base, stream),
  /// independent of draws already made.  The episode-parallel trainer calls
  /// this with the episode id before each task so dropout masks do not depend
  /// on task execution order or thread count.
  void ReseedDropout(uint64_t stream);

  /// Dropout base generator — the seed material ReseedDropout forks from.
  /// Copying it onto a replica (set_dropout_base) makes the replica's dropout
  /// streams identical to the master's for equal stream ids.
  const util::Rng& dropout_base() const { return dropout_base_; }
  void set_dropout_base(const util::Rng& base) { dropout_base_ = base; }

 private:
  /// The one test-only seam: tests/reference/ reaches Prefix/Suffix through
  /// it to build the per-sentence oracles the batched paths are checked
  /// against.
  friend class BackboneTestPeer;

  /// Per-lane dropout streams of one run; lane b draws from lane_rngs[b].
  /// May be empty when the backbone draws no dropout (CanCachePrefix()).
  using LaneRngs = std::vector<util::Rng*>;

  /// Called once per lane run, in ascending lane order, with the run's
  /// lanes and its Suffix output: emissions [count, run_max_len, max_tags],
  /// or hidden states [count, run_max_len, 2H] on a walk that does not emit.
  using RunVisitor = std::function<void(const EncodedBatch& run,
                                        const tensor::Tensor& output)>;

  /// Word embedding ‖ CharCNN features of token rows, [R, word (+ char)].
  tensor::Tensor TokenInput(const std::vector<int64_t>& word_ids,
                            const std::vector<std::vector<int64_t>>& char_ids) const;

  /// θ-prefix of one run: embeddings + CharCNN, input LaneDropout, and the
  /// BiGRU/BiLSTM for kFilm/kNone.  Returns the [B, L, D] features φ first
  /// touches (see CachedPrefix for the split point per mode).  Under EvalMode
  /// in the CanCachePrefix regime the run's slots are grouped once by (word
  /// id, char ids), every padding slot onto one pad token, and the embedding,
  /// the CharCNN and both BiGRU directions' input projections run once per
  /// distinct token (BiGru::ForwardGathered); kConcat and the BiLSTM gather
  /// the token features back to the slots instead.  Graph mode runs every
  /// slot.  Both give the same bits.
  tensor::Tensor Prefix(const EncodedBatch& run, const LaneRngs& lane_rngs) const;

  /// φ-suffix of one run: conditioning (the BiGRU/BiLSTM too for kConcat),
  /// hidden LaneDropout and the emission layer.  Returns [B, L, max_tags]
  /// emissions, or the [B, L, 2H] hidden states when `emit` is false.
  tensor::Tensor Suffix(const EncodedBatch& run, const tensor::Tensor& features,
                        const tensor::Tensor& phi, const LaneRngs& lane_rngs,
                        bool emit = true) const;

  /// The uncached run walk: forks the lane streams, partitions `batch` into
  /// lane runs, and builds run r's Prefix and Suffix (and `visit`s it) before
  /// run r + 1.  Grad's fan-in accumulation order follows this node-creation
  /// order, so the meta-gradient bits depend on it.  `emit` goes to Suffix.
  void ForEachRun(const EncodedBatch& batch, const tensor::Tensor& phi,
                  const RunVisitor& visit, bool emit = true) const;

  /// The cached run walk: the Suffix of each run of a checked prefix.
  void ForEachRun(const CachedPrefix& prefix, const tensor::Tensor& phi,
                  const RunVisitor& visit) const;

  /// Aborts when `prefix` is stale (θ changed since EncodePrefix), was built
  /// for a different conditioning mode, or the backbone left the cacheable
  /// regime.
  void CheckPrefix(const CachedPrefix& prefix) const;

  /// Length-masked inverted dropout over [B, Lmax, D]: lane b's rows t <
  /// lengths[b] draw one Bernoulli(p) per element, flat-row-major, from
  /// lane_rngs[b] — the draws of that sentence alone as a batch of one;
  /// padding rows get a 0 mask (dropped) without consuming draws.
  tensor::Tensor LaneDropout(const tensor::Tensor& x,
                             const EncodedBatch& batch,
                             const LaneRngs& lane_rngs) const;

  /// Forks the per-lane dropout streams for the next BatchLoss/DecodeBatch/
  /// Hidden call: stream id (call_index << 32) | lane, under the episode
  /// fork.  Advancing the call counter decorrelates successive inner steps
  /// (and the query pass) while staying a pure function of (episode id, call
  /// index, lane).
  std::vector<util::Rng> ForkLaneRngs(size_t lanes) const;

  BackboneConfig config_;
  std::unique_ptr<nn::Embedding> word_embedding_;
  std::unique_ptr<nn::CharCnn> char_cnn_;
  std::unique_ptr<nn::BiGru> bigru_;
  std::unique_ptr<nn::BiLstm> bilstm_;
  std::unique_ptr<nn::FilmGenerator> film_;
  std::unique_ptr<nn::Linear> emission_;
  std::unique_ptr<crf::LinearChainCrf> crf_;
  util::Rng dropout_base_;
  mutable util::Rng dropout_episode_;  ///< episode fork; lane streams hang off it
  mutable uint64_t dropout_call_ = 0;  ///< lane-stream forks since ReseedDropout
};

}  // namespace fewner::models
