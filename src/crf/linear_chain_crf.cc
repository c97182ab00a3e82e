#include "crf/linear_chain_crf.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "tensor/ops.h"

namespace fewner::crf {

using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr float kInvalidScore = -1e7f;

/// The log-partition composite: log Z of each lane of validity-masked
/// emissions [B, L, Y], one masked log-space forward step per timestep built
/// from tensor ops.  It is the definition of the fused LogPartition op, whose
/// forward and first-order backward kernels reproduce its float operations,
/// and the op's create_graph backward differentiates it directly.
Tensor LogPartitionComposite(const Tensor& masked, const Tensor& start,
                             const Tensor& transitions, const Tensor& end,
                             const std::vector<int64_t>& lengths) {
  const int64_t lanes = masked.shape().dim(0);
  const int64_t max_len = masked.shape().dim(1);
  const int64_t y = masked.shape().dim(2);
  auto emissions_at = [&](int64_t t) {
    return tensor::Reshape(tensor::Slice(masked, 1, t, 1), Shape{lanes, y});
  };
  // alpha[b, j] = start[j] + masked[b, 0, j]; the trailing broadcast computes
  // emission + start, bitwise-commutative with the per-sentence start + emission.
  Tensor alpha = tensor::Add(emissions_at(0), start);  // [B, Y]
  // transitions^T hoisted out of the time loop: by_to[b, j, i] = alpha[b, i] +
  // transitions[i, j], built directly in [B, to, from] layout.  Each element
  // is the same float addition, with the same operand order, that the
  // per-sentence hoisted [to, from] recursion produces — so the
  // LogSumExpLastDim rows match it bitwise with no per-timestep [B, Y, Y]
  // transpose (or its backward).
  Tensor trans_by_to = tensor::Transpose(transitions);  // [to, from]
  for (int64_t t = 1; t < max_len; ++t) {
    Tensor by_to = tensor::Add(tensor::Reshape(alpha, Shape{lanes, 1, y}),
                               trans_by_to);  // [B, to, from]
    Tensor lse = tensor::Reshape(tensor::LogSumExpLastDim(by_to), Shape{lanes, y});
    Tensor alpha_new = tensor::Add(lse, emissions_at(t));  // [B, Y]
    // Finished lanes carry their final alpha through unchanged (exact copy).
    std::vector<float> active(static_cast<size_t>(lanes), 0.0f);
    bool all_active = true;
    for (int64_t b = 0; b < lanes; ++b) {
      if (t < lengths[static_cast<size_t>(b)]) {
        active[static_cast<size_t>(b)] = 1.0f;
      } else {
        all_active = false;
      }
    }
    alpha = all_active
                ? alpha_new
                : tensor::Where(Tensor::FromData(Shape{lanes, 1}, std::move(active)),
                                alpha_new, alpha);
  }
  Tensor final_scores = tensor::Add(alpha, end);  // [B, Y], trailing broadcast
  return tensor::Reshape(tensor::LogSumExpLastDim(final_scores), Shape{lanes});
}

/// What the fused forward keeps for its first-order backward: the values the
/// composite's Exp and SumTo nodes hold, exp(by_to - max) and its row sums.
struct LogPartitionTape {
  std::vector<float> ex;         ///< [L-1, B, to, from]; step t at t-1
  std::vector<float> sum;        ///< [L-1, B, to]
  std::vector<float> final_ex;   ///< [B, Y]
  std::vector<float> final_sum;  ///< [B]
};

/// One LogSumExpLastDim row of the composite: writes exp(x[i] - max) to `ex`
/// and returns log(sum) + max, with the max the first strict maximum
/// (MaxAxis), each exp of one float Sub (std::exp, as Exp), the sum from +0 in
/// ascending i (SumTo), then Log and the Add of the max.  `*sum` gets the sum.
/// (At one tag SumTo of equal shapes returns its input; exp is never −0, so
/// +0 + ex[0] is the same bits.)
float LogSumExpRow(const float* x, int64_t n, float* ex, float* sum) {
  float mx = x[0];
  for (int64_t i = 1; i < n; ++i) {
    if (x[i] > mx) mx = x[i];
  }
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    ex[i] = std::exp(x[i] - mx);
    s += ex[i];
  }
  *sum = s;
  return std::log(s) + mx;
}

/// The fused forward: log Z [B] of masked [B, L, Y], running the composite's
/// float operations in its order (see LogPartitionComposite).  Fills `tape`
/// when non-null.
void LogPartitionForward(const float* masked, const float* start, const float* trans,
                         const float* end, int64_t lanes, int64_t max_len, int64_t y,
                         const std::vector<int64_t>& lengths, float* log_z,
                         LogPartitionTape* tape) {
  const size_t lane_tags = static_cast<size_t>(lanes * y);
  std::vector<float> alpha(lane_tags);
  std::vector<float> next(lane_tags);
  std::vector<float> by_to(static_cast<size_t>(y));
  std::vector<float> ex_row(static_cast<size_t>(y));
  float row_sum = 0.0f;
  if (tape != nullptr) {
    tape->ex.resize(static_cast<size_t>((max_len - 1) * lanes * y * y));
    tape->sum.resize(static_cast<size_t>((max_len - 1) * lanes * y));
    tape->final_ex.resize(lane_tags);
    tape->final_sum.resize(static_cast<size_t>(lanes));
  }
  for (int64_t b = 0; b < lanes; ++b) {
    const float* emit = masked + b * max_len * y;
    for (int64_t j = 0; j < y; ++j) alpha[static_cast<size_t>(b * y + j)] = emit[j] + start[j];
  }
  for (int64_t t = 1; t < max_len; ++t) {
    for (int64_t b = 0; b < lanes; ++b) {
      const float* emit = masked + (b * max_len + t) * y;
      const float* a = alpha.data() + b * y;
      float* out = next.data() + b * y;
      const bool active = t < lengths[static_cast<size_t>(b)];
      for (int64_t j = 0; j < y; ++j) {
        // by_to[i] = alpha[b, i] + transitions[i, j] (the [B, to, from] Add).
        for (int64_t i = 0; i < y; ++i) {
          by_to[static_cast<size_t>(i)] = a[i] + trans[i * y + j];
        }
        const int64_t row = ((t - 1) * lanes + b) * y + j;
        float* ex = tape != nullptr ? tape->ex.data() + row * y : ex_row.data();
        float* sum = tape != nullptr ? tape->sum.data() + row : &row_sum;
        const float an = LogSumExpRow(by_to.data(), y, ex, sum) + emit[j];
        // Where's exact carry of a finished lane.
        out[j] = active ? an : a[j];
      }
    }
    alpha.swap(next);
  }
  for (int64_t b = 0; b < lanes; ++b) {
    float* scores = next.data() + b * y;
    for (int64_t j = 0; j < y; ++j) scores[j] = alpha[static_cast<size_t>(b * y + j)] + end[j];
    float* ex = tape != nullptr ? tape->final_ex.data() + b * y : ex_row.data();
    float* sum = tape != nullptr ? tape->final_sum.data() + b : &row_sum;
    log_z[b] = LogSumExpRow(scores, y, ex, sum);
  }
}

/// The first-order backward of LogPartitionComposite under upstream grad
/// `g` [B], run as one reverse recursion over the forward's tape.  Each value
/// is the one the composite's eval-mode backward computes: the same closure
/// expressions (Log's grad / x, Exp's grad · out, Where's g · sel and
/// g · (1 − sel), SumTo's ascending sums from +0) on the same operands, and
/// the same fan-in at every multiply-consumed node (see the comments below).
/// Returns the grads of (masked, start, transitions, end) that `needs` asks
/// for.
std::vector<Tensor> LogPartitionBackward(const LogPartitionTape& tape, const float* g,
                                         const tensor::NeedsGrad& needs, int64_t lanes,
                                         int64_t max_len, int64_t y,
                                         const std::vector<int64_t>& lengths) {
  std::vector<Tensor> grads(4);
  const size_t lane_tags = static_cast<size_t>(lanes * y);
  // Final LogSumExpLastDim: d(sum) = g / sum, d(scores) = d(sum) · ex; the
  // end Add's grads are d(scores) itself and its SumTo over lanes.
  std::vector<float> g_alpha(lane_tags);
  for (int64_t b = 0; b < lanes; ++b) {
    const float d_sum = g[b] / tape.final_sum[static_cast<size_t>(b)];
    for (int64_t j = 0; j < y; ++j) {
      const size_t k = static_cast<size_t>(b * y + j);
      g_alpha[k] = d_sum * tape.final_ex[k];
    }
  }
  auto sum_lanes = [&](const std::vector<float>& per_lane) {
    std::vector<float> total(static_cast<size_t>(y), 0.0f);
    for (int64_t b = 0; b < lanes; ++b) {
      for (int64_t j = 0; j < y; ++j) {
        total[static_cast<size_t>(j)] += per_lane[static_cast<size_t>(b * y + j)];
      }
    }
    return Tensor::FromData(Shape{y}, std::move(total));
  };
  if (needs[3]) grads[3] = sum_lanes(g_alpha);
  if (!needs[0] && !needs[1] && !needs[2]) return grads;

  // masked is read by one Slice per timestep.  Its grad is the fan-in of the
  // Slices' zero-padded grads, so with two or more timesteps every entry is
  // its one real term plus at least one +0 pad: that term with −0 turned to
  // +0, which is what the + 0.0f below does.
  std::vector<float> d_masked(needs[0] ? static_cast<size_t>(lanes * max_len * y) : 0);
  auto write_masked = [&](int64_t t, const std::vector<float>& v) {
    if (!needs[0]) return;
    for (int64_t b = 0; b < lanes; ++b) {
      for (int64_t j = 0; j < y; ++j) {
        const float term = v[static_cast<size_t>(b * y + j)];
        d_masked[static_cast<size_t>((b * max_len + t) * y + j)] =
            max_len > 1 ? term + 0.0f : term;
      }
    }
  };

  std::vector<float> g_step(lane_tags);   // grad of the step's emission Add
  std::vector<float> g_carry(lane_tags);  // Where's grad into the old alpha
  std::vector<float> g_from(lane_tags);   // SumTo of d(by_to) over `to`
  std::vector<float> g_trans_t(static_cast<size_t>(y * y));
  std::vector<float> g_trans_by_to(needs[2] ? static_cast<size_t>(y * y) : 0);
  for (int64_t t = max_len - 1; t >= 1; --t) {
    bool all_active = true;
    for (int64_t b = 0; b < lanes; ++b) {
      all_active = all_active && t < lengths[static_cast<size_t>(b)];
    }
    if (all_active) {
      g_step = g_alpha;
    } else {
      // Where(active, alpha_new, alpha): g · sel and g · (1 − sel).
      for (int64_t b = 0; b < lanes; ++b) {
        const bool active = t < lengths[static_cast<size_t>(b)];
        const float sel = active ? 1.0f : 0.0f;
        const float keep = active ? 0.0f : 1.0f;
        for (int64_t j = 0; j < y; ++j) {
          const size_t k = static_cast<size_t>(b * y + j);
          g_step[k] = g_alpha[k] * sel;
          g_carry[k] = g_alpha[k] * keep;
        }
      }
    }
    write_masked(t, g_step);
    // LogSumExpLastDim of by_to [B, to, from]: d(sum) = g / sum,
    // d(by_to) = d(sum) · ex.  by_to = alpha [B, 1, from] + transitionsᵀ
    // [to, from]: alpha's grad sums d(by_to) over `to` ascending from +0 (a
    // single tag is SumTo of equal shapes, the term itself), transitionsᵀ's
    // over lanes ascending from +0.
    std::fill(g_from.begin(), g_from.end(), 0.0f);
    std::fill(g_trans_t.begin(), g_trans_t.end(), 0.0f);
    for (int64_t b = 0; b < lanes; ++b) {
      for (int64_t j = 0; j < y; ++j) {
        const int64_t row = ((t - 1) * lanes + b) * y + j;
        const float d_sum =
            g_step[static_cast<size_t>(b * y + j)] / tape.sum[static_cast<size_t>(row)];
        const float* ex = tape.ex.data() + row * y;
        float* from = g_from.data() + b * y;
        float* trans_row = g_trans_t.data() + j * y;
        for (int64_t i = 0; i < y; ++i) {
          const float d = d_sum * ex[i];
          if (y == 1) {
            from[i] = d;
          } else {
            from[i] += d;
          }
          trans_row[i] += d;
        }
      }
    }
    // transitionsᵀ is read by every step; Grad folds its grads from the last
    // step down to the first.
    if (needs[2]) {
      if (t == max_len - 1) {
        g_trans_by_to = g_trans_t;
      } else {
        for (size_t k = 0; k < g_trans_by_to.size(); ++k) {
          g_trans_by_to[k] = g_trans_by_to[k] + g_trans_t[k];
        }
      }
    }
    // The old alpha is read by this step's Add and, when some lane has
    // finished, by its Where: the Where's grad plus the Add's.
    if (all_active) {
      g_alpha = g_from;
    } else {
      for (size_t k = 0; k < lane_tags; ++k) g_alpha[k] = g_carry[k] + g_from[k];
    }
  }
  // Step 0: alpha = emissions[:, 0] + start.
  write_masked(0, g_alpha);
  if (needs[0]) grads[0] = Tensor::FromData(Shape{lanes, max_len, y}, std::move(d_masked));
  if (needs[1]) grads[1] = sum_lanes(g_alpha);
  if (needs[2]) {
    // Transpose back to [from, to]; a one-step batch never reads transitions.
    std::vector<float> d_trans(static_cast<size_t>(y * y), 0.0f);
    if (max_len > 1) {
      for (int64_t i = 0; i < y; ++i) {
        for (int64_t j = 0; j < y; ++j) {
          d_trans[static_cast<size_t>(i * y + j)] = g_trans_by_to[static_cast<size_t>(j * y + i)];
        }
      }
    }
    grads[2] = Tensor::FromData(Shape{y, y}, std::move(d_trans));
  }
  return grads;
}

/// log Z [B] of masked emissions [B, L, Y] as one fused op over (masked,
/// start, transitions, end): LogPartitionForward, LogPartitionBackward and
/// LogPartitionComposite (see tensor::FusedOp).
Tensor LogPartition(const Tensor& masked, const Tensor& start, const Tensor& transitions,
                    const Tensor& end, const std::vector<int64_t>& lengths) {
  const int64_t lanes = masked.shape().dim(0);
  const int64_t max_len = masked.shape().dim(1);
  const int64_t y = masked.shape().dim(2);
  auto tape = std::make_shared<LogPartitionTape>();
  return tensor::FusedOp(
      "crf_log_partition", "crf_log_partition_kernel", Shape{lanes},
      {masked, start, transitions, end},
      [&](float* log_z, bool taping) {
        LogPartitionForward(masked.data().data(), start.data().data(),
                            transitions.data().data(), end.data().data(), lanes, max_len,
                            y, lengths, log_z, taping ? tape.get() : nullptr);
      },
      [tape, lengths, lanes, max_len, y](const std::vector<Tensor>&, const Tensor& grad,
                                         const tensor::NeedsGrad& needs) {
        return LogPartitionBackward(*tape, grad.data().data(), needs, lanes, max_len, y,
                                    lengths);
      },
      [lengths](const std::vector<Tensor>& in) {
        return LogPartitionComposite(in[0], in[1], in[2], in[3], lengths);
      });
}

}  // namespace

LinearChainCrf::LinearChainCrf(int64_t num_tags) : num_tags_(num_tags) {
  FEWNER_CHECK(num_tags > 0, "CRF requires at least one tag");
  transitions_ = Tensor::Zeros(Shape{num_tags, num_tags}, /*requires_grad=*/true);
  start_ = Tensor::Zeros(Shape{num_tags}, /*requires_grad=*/true);
  end_ = Tensor::Zeros(Shape{num_tags}, /*requires_grad=*/true);
  RegisterParameter("transitions", &transitions_);
  RegisterParameter("start", &start_);
  RegisterParameter("end", &end_);
}

void LinearChainCrf::CheckValidTags(const std::vector<bool>* valid_tags) const {
  if (valid_tags == nullptr) return;
  FEWNER_CHECK(static_cast<int64_t>(valid_tags->size()) == num_tags_,
               "valid_tags has " << valid_tags->size() << " entries for "
                                 << num_tags_ << " tags");
  FEWNER_CHECK(std::find(valid_tags->begin(), valid_tags->end(), true) !=
                   valid_tags->end(),
               "valid_tags marks no tag valid");
}

Tensor LinearChainCrf::ValidityMask(const std::vector<bool>* valid_tags) const {
  std::vector<float> mask(static_cast<size_t>(num_tags_), 0.0f);
  if (valid_tags != nullptr) {
    for (int64_t i = 0; i < num_tags_; ++i) {
      if (!(*valid_tags)[static_cast<size_t>(i)]) {
        mask[static_cast<size_t>(i)] = kInvalidScore;
      }
    }
  }
  return Tensor::FromData(Shape{num_tags_}, std::move(mask));
}

Tensor LinearChainCrf::NegLogLikelihoodBatch(
    const Tensor& emissions, const std::vector<int64_t>& tags,
    const std::vector<int64_t>& lengths, const std::vector<bool>* valid_tags) const {
  CheckValidTags(valid_tags);
  FEWNER_CHECK(emissions.rank() == 3 && emissions.shape().dim(2) == num_tags_,
               "batched emissions must be [B, L, " << num_tags_ << "], got "
                                                   << emissions.shape().ToString());
  const int64_t lanes = emissions.shape().dim(0);
  const int64_t max_len = emissions.shape().dim(1);
  FEWNER_CHECK(static_cast<int64_t>(lengths.size()) == lanes,
               "got " << lengths.size() << " lengths for " << lanes << " lanes");
  FEWNER_CHECK(static_cast<int64_t>(tags.size()) == lanes * max_len,
               "got " << tags.size() << " tags for " << lanes * max_len
                      << " padded tokens");
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t len = lengths[static_cast<size_t>(b)];
    FEWNER_CHECK(len >= 1 && len <= max_len,
                 "lane " << b << " length " << len << " out of [1, " << max_len << "]");
    for (int64_t t = 0; t < len; ++t) {
      const int64_t tag = tags[static_cast<size_t>(b * max_len + t)];
      FEWNER_CHECK(tag >= 0 && tag < num_tags_, "tag " << tag << " out of range");
      FEWNER_CHECK(valid_tags == nullptr || (*valid_tags)[static_cast<size_t>(tag)],
                   "gold tag " << tag << " is masked invalid");
    }
  }

  // Lane b equals the per-sentence recursion on its [len, Y] block alone, bit
  // for bit (the tests hold it to the oracle reference::CrfNll).
  //
  // Crush invalid tags out of every path.  The trailing [Y] broadcast applies
  // the same per-element addition to every lane.
  Tensor masked = tensor::Add(emissions, ValidityMask(valid_tags));  // [B, L, Y]
  Tensor log_z = LogPartition(masked, start_, transitions_, end_, lengths);  // [B]

  // --- gold path scores, per lane, via constant selection masks ---
  // RowSum accumulates each lane in double precision in ascending flat order:
  // the lane's real (t, y) entries come first (row-major) in exactly the order
  // the per-sentence SumAll visits them, and the padding tail contributes
  // exact ±0 products that are no-ops in double.
  std::vector<float> emit_mask(static_cast<size_t>(lanes * max_len * num_tags_), 0.0f);
  std::vector<float> trans_count(static_cast<size_t>(lanes * num_tags_ * num_tags_),
                                 0.0f);
  std::vector<float> start_mask(static_cast<size_t>(lanes * num_tags_), 0.0f);
  std::vector<float> end_mask(static_cast<size_t>(lanes * num_tags_), 0.0f);
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t len = lengths[static_cast<size_t>(b)];
    const int64_t* lane_tags = tags.data() + b * max_len;
    for (int64_t t = 0; t < len; ++t) {
      emit_mask[static_cast<size_t>((b * max_len + t) * num_tags_ + lane_tags[t])] =
          1.0f;
    }
    for (int64_t t = 1; t < len; ++t) {
      trans_count[static_cast<size_t>(
          (b * num_tags_ + lane_tags[t - 1]) * num_tags_ + lane_tags[t])] += 1.0f;
    }
    start_mask[static_cast<size_t>(b * num_tags_ + lane_tags[0])] = 1.0f;
    end_mask[static_cast<size_t>(b * num_tags_ + lane_tags[len - 1])] = 1.0f;
  }

  Tensor gold_emit = tensor::RowSum(tensor::Reshape(
      tensor::Mul(masked, Tensor::FromData(Shape{lanes, max_len, num_tags_},
                                           std::move(emit_mask))),
      Shape{lanes, max_len * num_tags_}));
  Tensor gold_trans = tensor::RowSum(tensor::Reshape(
      tensor::Mul(Tensor::FromData(Shape{lanes, num_tags_, num_tags_},
                                   std::move(trans_count)),
                  transitions_),
      Shape{lanes, num_tags_ * num_tags_}));
  Tensor gold_start = tensor::RowSum(tensor::Mul(
      Tensor::FromData(Shape{lanes, num_tags_}, std::move(start_mask)), start_));
  Tensor gold_end = tensor::RowSum(tensor::Mul(
      Tensor::FromData(Shape{lanes, num_tags_}, std::move(end_mask)), end_));
  Tensor gold_score =
      tensor::Add(tensor::Add(gold_emit, gold_trans), tensor::Add(gold_start, gold_end));

  return tensor::Sub(log_z, gold_score);  // [B], lane b == per-sentence NLL
}

std::vector<std::vector<int64_t>> LinearChainCrf::ViterbiBatch(
    const Tensor& emissions, const std::vector<int64_t>& lengths,
    const std::vector<bool>* valid_tags) const {
  CheckValidTags(valid_tags);
  FEWNER_CHECK(emissions.rank() == 3 && emissions.shape().dim(2) == num_tags_,
               "batched emissions must be [B, L, " << num_tags_ << "]");
  const int64_t lanes = emissions.shape().dim(0);
  const int64_t max_len = emissions.shape().dim(1);
  FEWNER_CHECK(static_cast<int64_t>(lengths.size()) == lanes,
               "got " << lengths.size() << " lengths for " << lanes << " lanes");
  const float* emit = emissions.data().data();
  std::vector<std::vector<int64_t>> paths;
  paths.reserve(static_cast<size_t>(lanes));
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t len = lengths[static_cast<size_t>(b)];
    FEWNER_CHECK(len >= 1 && len <= max_len,
                 "lane " << b << " length " << len << " out of [1, " << max_len << "]");
    // Lane b's real rows are the contiguous prefix of its padded block.
    paths.push_back(ViterbiCore(emit + b * max_len * num_tags_, len, valid_tags));
  }
  return paths;
}

std::vector<int64_t> LinearChainCrf::ViterbiCore(
    const float* emit, int64_t length, const std::vector<bool>* valid_tags) const {
  const int64_t y = num_tags_;

  auto is_valid = [&](int64_t tag) {
    return valid_tags == nullptr || (*valid_tags)[static_cast<size_t>(tag)];
  };

  const auto& trans = transitions_.data();
  const auto& start = start_.data();
  const auto& end = end_.data();

  // Two reusable score rows and one flat [L, Y] backpointer table: three
  // allocations total, independent of sentence length, instead of one
  // inner vector per timestep.  The float recurrence is untouched — the
  // brute-force property test in tests/crf_test.cc pins its results.
  std::vector<float> score(static_cast<size_t>(y), kInvalidScore);
  std::vector<float> next(static_cast<size_t>(y));
  std::vector<int64_t> backptr(static_cast<size_t>(length * y), -1);

  for (int64_t j = 0; j < y; ++j) {
    if (is_valid(j)) score[static_cast<size_t>(j)] = start[static_cast<size_t>(j)] +
                                                     emit[static_cast<size_t>(j)];
  }
  for (int64_t t = 1; t < length; ++t) {
    std::fill(next.begin(), next.end(), kInvalidScore);
    for (int64_t j = 0; j < y; ++j) {
      if (!is_valid(j)) continue;
      // Each max starts from the first valid candidate, so every score (very
      // negative, −inf or NaN included) picks a valid tag; the strict `>`
      // keeps the first maximum.
      float best = 0.0f;
      int64_t best_from = -1;
      for (int64_t i = 0; i < y; ++i) {
        if (!is_valid(i)) continue;
        const float candidate =
            score[static_cast<size_t>(i)] + trans[static_cast<size_t>(i * y + j)];
        if (best_from < 0 || candidate > best) {
          best = candidate;
          best_from = i;
        }
      }
      next[static_cast<size_t>(j)] = best + emit[static_cast<size_t>(t * y + j)];
      backptr[static_cast<size_t>(t * y + j)] = best_from;
    }
    score.swap(next);
  }

  float best_final = 0.0f;
  int64_t best_tag = -1;
  for (int64_t j = 0; j < y; ++j) {
    if (!is_valid(j)) continue;
    const float candidate = score[static_cast<size_t>(j)] + end[static_cast<size_t>(j)];
    if (best_tag < 0 || candidate > best_final) {
      best_final = candidate;
      best_tag = j;
    }
  }

  std::vector<int64_t> path(static_cast<size_t>(length));
  path[static_cast<size_t>(length - 1)] = best_tag;
  for (int64_t t = length - 1; t > 0; --t) {
    best_tag = backptr[static_cast<size_t>(t * y + best_tag)];
    path[static_cast<size_t>(t - 1)] = best_tag;
  }
  return path;
}

}  // namespace fewner::crf
