#include "models/backbone.h"

#include <algorithm>
#include <compare>
#include <numeric>
#include <utility>

#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::models {

using tensor::Shape;
using tensor::Tensor;

namespace {
/// Aborts unless `batch` is well formed: one length per lane, each in [1,
/// max_len], and B·max_len entries in each flat vector.  Checked once per
/// entry point, before LaneRuns and SubBatch index into it.
void CheckBatch(const EncodedBatch& batch) {
  FEWNER_CHECK(batch.batch > 0, "Backbone forward on an empty batch");
  FEWNER_CHECK(static_cast<int64_t>(batch.lengths.size()) == batch.batch,
               "EncodedBatch lengths has " << batch.lengths.size() << " entries for batch "
                                           << batch.batch);
  for (int64_t b = 0; b < batch.batch; ++b) {
    const int64_t len = batch.lengths[static_cast<size_t>(b)];
    FEWNER_CHECK(len >= 1 && len <= batch.max_len,
                 "EncodedBatch lane " << b << " length " << len << " out of [1, "
                                      << batch.max_len << "]");
  }
  // max_len >= 1 here; dividing keeps a huge max_len from overflowing B·max_len.
  const auto check_flat = [&batch](size_t size, const char* field) {
    const size_t lanes = static_cast<size_t>(batch.batch);
    FEWNER_CHECK(size % lanes == 0 && static_cast<int64_t>(size / lanes) == batch.max_len,
                 "EncodedBatch " << field << " has " << size << " entries for batch "
                                 << batch.batch << " x max_len " << batch.max_len);
  };
  check_flat(batch.word_ids.size(), "word_ids");
  check_flat(batch.char_ids.size(), "char_ids");
  check_flat(batch.tags.size(), "tags");
}

/// A run's token slots grouped by (word id, char ids): row i of the distinct
/// tokens is (word_ids[i], char_ids[i]), and slot s (lane-major, B·L of them)
/// reads row slot_rows[s].  Every padding slot reads the pad token (word 0, no
/// characters), whatever the batch holds there.  Rows are ordered by (char
/// count, char ids, word id); a word's padded CharCNN length grows with its
/// char count, so the CharCNN's length buckets come out contiguous and in
/// order.
struct DistinctTokens {
  std::vector<int64_t> word_ids;
  std::vector<std::vector<int64_t>> char_ids;
  std::vector<int64_t> slot_rows;
};

DistinctTokens GroupTokens(const EncodedBatch& run) {
  static const std::vector<int64_t> kNoChars;
  const size_t slots = static_cast<size_t>(run.flat_size());
  std::vector<int64_t> words(slots, 0);
  std::vector<const std::vector<int64_t>*> chars(slots, &kNoChars);
  for (int64_t b = 0; b < run.batch; ++b) {
    const size_t lane = static_cast<size_t>(b * run.max_len);
    for (size_t t = 0; t < static_cast<size_t>(run.lengths[static_cast<size_t>(b)]); ++t) {
      words[lane + t] = run.word_ids[lane + t];
      chars[lane + t] = &run.char_ids[lane + t];
    }
  }
  const auto before = [&](int64_t a, int64_t b) {
    const std::vector<int64_t>& ca = *chars[static_cast<size_t>(a)];
    const std::vector<int64_t>& cb = *chars[static_cast<size_t>(b)];
    if (ca.size() != cb.size()) return ca.size() < cb.size();
    if (const auto order = ca <=> cb; order != 0) return order < 0;
    return words[static_cast<size_t>(a)] < words[static_cast<size_t>(b)];
  };
  std::vector<int64_t> order(slots);
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), before);
  DistinctTokens tokens;
  tokens.slot_rows.resize(slots);
  for (size_t k = 0; k < slots; ++k) {
    const int64_t slot = order[k];
    if (k == 0 || before(order[k - 1], slot)) {
      tokens.word_ids.push_back(words[static_cast<size_t>(slot)]);
      tokens.char_ids.push_back(*chars[static_cast<size_t>(slot)]);
    }
    tokens.slot_rows[static_cast<size_t>(slot)] =
        static_cast<int64_t>(tokens.word_ids.size()) - 1;
  }
  return tokens;
}

/// Contiguous lane runs with bounded padding: a run closes before a lane that
/// would stretch its max/min length ratio beyond 2.  Per-lane batched results
/// are bitwise lane-independent (DESIGN.md §7), so any partition computes
/// identical values — bucketing only trades padded FLOPs for a few extra op
/// launches.  With length-sorted batches (data::EpisodeSampler) ragged sets
/// collapse into a handful of near-homogeneous sub-batches.
std::vector<std::pair<int64_t, int64_t>> LaneRuns(
    const std::vector<int64_t>& lengths) {
  std::vector<std::pair<int64_t, int64_t>> runs;
  int64_t begin = 0;
  int64_t run_min = lengths[0];
  int64_t run_max = lengths[0];
  for (int64_t b = 1; b < static_cast<int64_t>(lengths.size()); ++b) {
    const int64_t lo = std::min(run_min, lengths[static_cast<size_t>(b)]);
    const int64_t hi = std::max(run_max, lengths[static_cast<size_t>(b)]);
    if (hi > 2 * lo) {
      runs.emplace_back(begin, b - begin);
      begin = b;
      run_min = run_max = lengths[static_cast<size_t>(b)];
    } else {
      run_min = lo;
      run_max = hi;
    }
  }
  runs.emplace_back(begin, static_cast<int64_t>(lengths.size()) - begin);
  return runs;
}

/// Repacks lanes [begin, begin + count) into their own padded batch, padded
/// only to the run's max length.
EncodedBatch SubBatch(const EncodedBatch& batch, int64_t begin, int64_t count) {
  EncodedBatch sub;
  sub.batch = count;
  sub.lengths.assign(batch.lengths.begin() + begin,
                     batch.lengths.begin() + begin + count);
  sub.max_len = *std::max_element(sub.lengths.begin(), sub.lengths.end());
  const size_t flat = static_cast<size_t>(sub.batch * sub.max_len);
  sub.word_ids.assign(flat, 0);
  sub.char_ids.assign(flat, {});
  sub.tags.assign(flat, 0);
  for (int64_t b = 0; b < count; ++b) {
    const size_t src = static_cast<size_t>((begin + b) * batch.max_len);
    const size_t dst = static_cast<size_t>(b * sub.max_len);
    const size_t len = static_cast<size_t>(sub.lengths[static_cast<size_t>(b)]);
    for (size_t t = 0; t < len; ++t) {
      sub.word_ids[dst + t] = batch.word_ids[src + t];
      sub.char_ids[dst + t] = batch.char_ids[src + t];
      sub.tags[dst + t] = batch.tags[src + t];
    }
  }
  return sub;
}

/// The one lane-run partition: calls fn(run, first_lane) for each LaneRuns
/// run in ascending lane order.  A batch that is one run is passed through
/// as is; otherwise each run is repacked by SubBatch.
template <typename Fn>
void ForEachLaneRun(const EncodedBatch& batch, Fn&& fn) {
  const std::vector<std::pair<int64_t, int64_t>> runs = LaneRuns(batch.lengths);
  if (runs.size() == 1) {
    fn(batch, int64_t{0});
    return;
  }
  for (const auto& [begin, count] : runs) {
    fn(SubBatch(batch, begin, count), begin);
  }
}

/// The task-loss fold behind BatchLoss and BatchLossFromPrefix.  `walk`
/// feeds each run's emissions to a visitor, which builds that run's CRF NLL
/// before the walk moves on.  Runs are contiguous and ascending, so the
/// concatenated lane NLLs sit in batch order, and SumAllFloat folds them with
/// left-associated scalar float adds: the total equals adding per-sentence
/// losses one at a time, bitwise.  The paper's task loss is the SUM (L =
/// -Σ p(y|h), §3.2.3); the inner learning rate α = 0.1 is calibrated against
/// this scale, so a mean would shrink every inner step by the support size.
template <typename Walk>
Tensor SumRunLosses(const crf::LinearChainCrf& crf,
                    const std::vector<bool>& valid_tags, Walk&& walk) {
  std::vector<Tensor> per_run;
  walk([&](const EncodedBatch& run, const Tensor& emissions) {
    per_run.push_back(crf.NegLogLikelihoodBatch(emissions, run.tags,
                                                run.lengths, &valid_tags));
  });
  Tensor per_lane =
      per_run.size() == 1 ? per_run.front() : tensor::Concat(per_run, 0);
  return tensor::SumAllFloat(per_lane);
}
}  // namespace

Backbone::Backbone(const BackboneConfig& config, util::Rng* rng)
    : config_(config),
      dropout_base_(rng->Fork(0xD409u)),
      dropout_episode_(dropout_base_.Fork(0)) {
  FEWNER_CHECK(config.word_vocab_size > 0, "backbone needs a word vocabulary");
  word_embedding_ =
      std::make_unique<nn::Embedding>(config.word_vocab_size, config.word_dim, rng);
  if (config.pretrained_word_vectors != nullptr) {
    word_embedding_->LoadPretrained(*config.pretrained_word_vectors);
  }
  RegisterModule("word_embedding", word_embedding_.get());

  if (config.use_char_cnn) {
    nn::CharCnnConfig char_config;
    char_config.char_vocab_size = config.char_vocab_size;
    char_config.char_dim = config.char_dim;
    char_config.filter_widths = config.filter_widths;
    char_config.filters_per_width = config.filters_per_width;
    char_cnn_ = std::make_unique<nn::CharCnn>(char_config, rng);
    RegisterModule("char_cnn", char_cnn_.get());
  }

  if (config.encoder == EncoderKind::kBiGru) {
    bigru_ = std::make_unique<nn::BiGru>(token_input_dim(), config.hidden_dim, rng);
    RegisterModule("bigru", bigru_.get());
  } else {
    bilstm_ =
        std::make_unique<nn::BiLstm>(token_input_dim(), config.hidden_dim, rng);
    RegisterModule("bilstm", bilstm_.get());
  }

  if (config.conditioning == Conditioning::kFilm) {
    FEWNER_CHECK(config.context_dim > 0, "FiLM conditioning needs context_dim > 0");
    film_ = std::make_unique<nn::FilmGenerator>(config.context_dim,
                                                2 * config.hidden_dim, rng);
    RegisterModule("film", film_.get());
  }

  emission_ =
      std::make_unique<nn::Linear>(2 * config.hidden_dim, config.max_tags, rng);
  RegisterModule("emission", emission_.get());

  crf_ = std::make_unique<crf::LinearChainCrf>(config.max_tags);
  RegisterModule("crf", crf_.get());
}

void Backbone::ReseedDropout(uint64_t stream) {
  dropout_episode_ = dropout_base_.Fork(stream);
  dropout_call_ = 0;
}

std::vector<util::Rng> Backbone::ForkLaneRngs(size_t lanes) const {
  std::vector<util::Rng> rngs;
  // Lane streams exist only to make training-mode dropout masks reproducible
  // per (episode, call, lane); with dropout off, LaneDropout never draws from
  // them.  Returning unforked placeholders then keeps this path free of
  // writes to the shared Backbone, so concurrent eval-mode serving threads
  // never touch shared state (the tsan-labelled serving tests pin this).
  if (!training() || config_.dropout <= 0.0f) {
    rngs.resize(lanes);
    return rngs;
  }
  const uint64_t call = dropout_call_++;
  rngs.reserve(lanes);
  for (size_t b = 0; b < lanes; ++b) {
    rngs.push_back(dropout_episode_.Fork((call << 32) | static_cast<uint64_t>(b)));
  }
  return rngs;
}

int64_t Backbone::token_input_dim() const {
  int64_t dim = config_.word_dim;
  if (config_.use_char_cnn) {
    dim += static_cast<int64_t>(config_.filter_widths.size()) *
           config_.filters_per_width;
  }
  if (config_.conditioning == Conditioning::kConcat) dim += config_.context_dim;
  return dim;
}

Tensor Backbone::ZeroContext() const {
  if (config_.conditioning == Conditioning::kNone) return Tensor();
  return Tensor::Zeros(Shape{config_.context_dim}, /*requires_grad=*/true);
}

Tensor Backbone::LaneDropout(const Tensor& x, const EncodedBatch& batch,
                             const LaneRngs& lane_rngs) const {
  if (!training() || config_.dropout <= 0.0f) return x;
  const float p = config_.dropout;
  FEWNER_CHECK(p < 1.0f, "Dropout rate must be < 1");
  FEWNER_CHECK(static_cast<int64_t>(lane_rngs.size()) == batch.batch,
               "LaneDropout lane rng count mismatch");
  const float scale = 1.0f / (1.0f - p);
  const int64_t d = x.shape().dim(2);
  // Padding rows get a 0 mask (dropped) without consuming draws, so lane b's
  // draw sequence is exactly that of its [len, d] rows alone in a batch of
  // one — and garbage padding activations are zeroed for free.
  std::vector<float> mask(static_cast<size_t>(x.numel()), 0.0f);
  for (int64_t b = 0; b < batch.batch; ++b) {
    util::Rng* rng = lane_rngs[static_cast<size_t>(b)];
    float* lane_mask = mask.data() + b * batch.max_len * d;
    const int64_t lane_elems = batch.lengths[static_cast<size_t>(b)] * d;
    for (int64_t i = 0; i < lane_elems; ++i) {
      lane_mask[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
  }
  return tensor::Mul(x, Tensor::FromData(x.shape(), std::move(mask)));
}

Tensor Backbone::TokenInput(const std::vector<int64_t>& word_ids,
                            const std::vector<std::vector<int64_t>>& char_ids) const {
  Tensor words = word_embedding_->Forward(word_ids);  // [R, word_dim]
  if (!config_.use_char_cnn) return words;
  return tensor::Concat({words, char_cnn_->ForwardBatch(char_ids)}, 1);
}

Tensor Backbone::Prefix(const EncodedBatch& run, const LaneRngs& lane_rngs) const {
  const int64_t lanes = run.batch;
  const int64_t max_len = run.max_len;
  FEWNER_CHECK(lanes > 0 && max_len > 0, "Backbone forward on an empty batch");
  // Every op here is per-row (GEMM rows are bitwise-independent under the
  // ascending-k kernel contract), so lane b's rows match running that
  // sentence alone.
  Tensor input;  // [B*L, word (+ char)]
  if (tensor::EvalMode::active() && CanCachePrefix()) {
    // No grad and no dropout: the token pipeline up to each direction's
    // input projection is a function of the token alone, so it runs once per
    // distinct token of the run and is gathered back to the B·L slots.
    // Graph mode keeps one row per slot: gathering there would sum a token's
    // slot grads before the weight-grad GEMMs and move θ.
    const DistinctTokens tokens = GroupTokens(run);
    Tensor distinct = TokenInput(tokens.word_ids, tokens.char_ids);  // [D, in]
    if (bigru_ && config_.conditioning != Conditioning::kConcat) {
      return bigru_->ForwardGathered(distinct, tokens.slot_rows, run.lengths, max_len);
    }
    input = tensor::IndexSelectRows(distinct, tokens.slot_rows);
  } else {
    input = TokenInput(run.word_ids, run.char_ids);
  }
  Tensor input3 = LaneDropout(
      tensor::Reshape(input, Shape{lanes, max_len, input.shape().dim(1)}), run,
      lane_rngs);
  if (config_.conditioning == Conditioning::kConcat) {
    // Method A threads φ into the BiGRU input, so the recurrence is
    // φ-dependent and the θ-prefix stops at the token features.
    return input3;
  }
  // kFilm/kNone: φ enters after the encoder (or never), so the full
  // recurrent pass — the expensive part — is θ-only.
  return bigru_ ? bigru_->ForwardBatch(input3, run.lengths)
                : bilstm_->ForwardBatch(input3, run.lengths);
}

Tensor Backbone::Suffix(const EncodedBatch& run, const Tensor& features,
                        const Tensor& phi, const LaneRngs& lane_rngs,
                        bool emit) const {
  const int64_t rows = run.batch * run.max_len;
  Tensor hidden3 = features;  // kNone: the suffix is emission + CRF only
  if (config_.conditioning == Conditioning::kConcat) {
    FEWNER_CHECK(phi.defined(), "kConcat conditioning requires a context vector");
    // Method A (paper Eq. 7): φ joins every token's input features.
    Tensor phi_rows = tensor::BroadcastTo(
        tensor::Reshape(phi, Shape{1, 1, config_.context_dim}),
        Shape{run.batch, run.max_len, config_.context_dim});
    Tensor input3 = tensor::Concat({features, phi_rows}, 2);
    hidden3 = bigru_ ? bigru_->ForwardBatch(input3, run.lengths)
                     : bilstm_->ForwardBatch(input3, run.lengths);
  } else if (config_.conditioning == Conditioning::kFilm) {
    FEWNER_CHECK(phi.defined(), "kFilm conditioning requires a context vector");
    // Method B (paper Eq. 8-9): modulate the BiGRU output so adapted hidden
    // states feed task-specific label dependencies into the CRF.  FiLM's γ/η
    // broadcast is per-row, so flattening lanes is exact.
    Tensor hidden2 = film_->Forward(
        tensor::Reshape(features, Shape{rows, 2 * config_.hidden_dim}), phi);
    hidden3 = tensor::Reshape(
        hidden2, Shape{run.batch, run.max_len, 2 * config_.hidden_dim});
  }
  hidden3 = LaneDropout(hidden3, run, lane_rngs);
  if (!emit) return hidden3;
  Tensor emissions2 = emission_->Forward(
      tensor::Reshape(hidden3, Shape{rows, 2 * config_.hidden_dim}));
  return tensor::Reshape(emissions2,
                         Shape{run.batch, run.max_len, config_.max_tags});
}

void Backbone::ForEachRun(const EncodedBatch& batch, const Tensor& phi,
                          const RunVisitor& visit, bool emit) const {
  CheckBatch(batch);
  std::vector<util::Rng> owned = ForkLaneRngs(static_cast<size_t>(batch.batch));
  // Length-bucketed execution: each near-homogeneous lane run gets its own
  // padded forward, so a ragged batch does not pay every lane at the longest
  // lane's length.  Lane values are identical under any partition.
  ForEachLaneRun(batch, [&](const EncodedBatch& run, int64_t begin) {
    LaneRngs lane_rngs;
    lane_rngs.reserve(static_cast<size_t>(run.batch));
    for (int64_t b = begin; b < begin + run.batch; ++b) {
      lane_rngs.push_back(&owned[static_cast<size_t>(b)]);
    }
    visit(run, Suffix(run, Prefix(run, lane_rngs), phi, lane_rngs, emit));
  });
}

void Backbone::ForEachRun(const CachedPrefix& prefix, const Tensor& phi,
                          const RunVisitor& visit) const {
  CheckPrefix(prefix);
  // CheckPrefix pins the dropout-free regime, where LaneDropout never reads
  // a lane stream.
  for (const CachedPrefix::Run& run : prefix.runs) {
    visit(run.batch, Suffix(run.batch, run.features, phi, {}));
  }
}

Tensor Backbone::Hidden(const EncodedBatch& batch) const {
  FEWNER_CHECK(config_.conditioning == Conditioning::kNone,
               "Hidden reads a kNone backbone (it takes no context vector)");
  const int64_t dim = 2 * config_.hidden_dim;
  std::vector<Tensor> per_run;
  ForEachRun(
      batch, Tensor(),
      [&](const EncodedBatch& run, const Tensor& hidden3) {
        std::vector<int64_t> rows;
        for (int64_t b = 0; b < run.batch; ++b) {
          for (int64_t t = 0; t < run.lengths[static_cast<size_t>(b)]; ++t) {
            rows.push_back(b * run.max_len + t);
          }
        }
        per_run.push_back(tensor::IndexSelectRows(
            tensor::Reshape(hidden3, Shape{run.batch * run.max_len, dim}), rows));
      },
      /*emit=*/false);
  return per_run.size() == 1 ? per_run.front() : tensor::Concat(per_run, 0);
}

Tensor Backbone::BatchLoss(const EncodedBatch& batch, const Tensor& phi,
                           const std::vector<bool>& valid_tags) const {
  return SumRunLosses(*crf_, valid_tags, [&](const RunVisitor& visit) {
    ForEachRun(batch, phi, visit);
  });
}

std::vector<std::vector<int64_t>> Backbone::DecodeBatch(
    const EncodedBatch& batch, const Tensor& phi,
    const std::vector<bool>& valid_tags) const {
  std::vector<std::vector<int64_t>> paths;
  ForEachRun(batch, phi, [&](const EncodedBatch& run, const Tensor& run_emissions) {
    // Cut the decode out of a live autodiff graph; under EvalMode no graph
    // was built, so there is nothing to cut.
    Tensor emissions = tensor::EvalMode::active() ? run_emissions
                                                  : run_emissions.Detach();
    for (auto& path : crf_->ViterbiBatch(emissions, run.lengths, &valid_tags)) {
      paths.push_back(std::move(path));
    }
  });
  return paths;
}

bool Backbone::CanCachePrefix() const {
  // Mirrors the LaneDropout/ForkLaneRngs no-op condition: when this holds,
  // the θ-prefix draws nothing and touches no shared RNG state, so reusing
  // its output across calls is exactly what re-running it would compute.
  return !training() || config_.dropout <= 0.0f;
}

uint64_t Backbone::ParameterVersion() const {
  // FNV-1a fold over every slot's (node id, mutation version), in slot order.
  // In-place optimizer steps bump the version, slot replacement (fresh leaf,
  // ParameterPatch) swaps the id — either way the fold changes.  Parameters()
  // is non-const because it exposes mutable slots; this walk only reads.
  uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  for (tensor::Tensor* slot : const_cast<Backbone*>(this)->Parameters()) {
    fold(slot->node()->id);
    fold(slot->node()->version);
  }
  return h;
}

void Backbone::CheckPrefix(const CachedPrefix& prefix) const {
  FEWNER_CHECK(prefix.defined(), "use of an undefined CachedPrefix");
  FEWNER_CHECK(prefix.conditioning == config_.conditioning,
               "CachedPrefix built for a different conditioning mode");
  FEWNER_CHECK(CanCachePrefix(),
               "CachedPrefix consumed in the training-dropout regime");
  FEWNER_CHECK(prefix.param_version == ParameterVersion(),
               "stale CachedPrefix: θ changed since EncodePrefix (optimizer "
               "step or parameter swap) — rebuild the prefix");
}

CachedPrefix Backbone::EncodePrefix(const EncodedBatch& batch) const {
  CheckBatch(batch);
  FEWNER_CHECK(CanCachePrefix(),
               "EncodePrefix in the training-dropout regime: per-step masks "
               "make a shared prefix incorrect; use the per-step forward");
  CachedPrefix prefix;
  prefix.batch = batch.batch;
  prefix.max_len = batch.max_len;
  prefix.conditioning = config_.conditioning;
  prefix.param_version = ParameterVersion();
  // The uncached walk's partition and the same Prefix, with no lane streams
  // (the regime draws none): each run's Suffix later sees exactly the values
  // and padded shapes the uncached path computes.
  ForEachLaneRun(batch, [&](const EncodedBatch& run, int64_t) {
    CachedPrefix::Run cached;
    cached.batch = run;
    cached.features = Prefix(cached.batch, {});
    prefix.runs.push_back(std::move(cached));
  });
  return prefix;
}

Tensor Backbone::BatchLossFromPrefix(const CachedPrefix& prefix,
                                     const Tensor& phi,
                                     const std::vector<bool>& valid_tags) const {
  return SumRunLosses(*crf_, valid_tags, [&](const RunVisitor& visit) {
    ForEachRun(prefix, phi, visit);
  });
}

Tensor Backbone::EmissionsFromPrefix(const CachedPrefix& prefix,
                                     const Tensor& phi) const {
  std::vector<Tensor> per_run;
  ForEachRun(prefix, phi, [&](const EncodedBatch& run, const Tensor& emissions) {
    if (run.max_len == prefix.max_len) {
      per_run.push_back(emissions);
      return;
    }
    // Re-pad to the whole-batch Lmax; padding rows are unspecified, and
    // zeros are as good as recomputed garbage and cheaper.
    per_run.push_back(tensor::Concat(
        {emissions, Tensor::Zeros(Shape{run.batch, prefix.max_len - run.max_len,
                                        config_.max_tags})},
        1));
  });
  return per_run.size() == 1 ? per_run.front() : tensor::Concat(per_run, 0);
}

}  // namespace fewner::models
