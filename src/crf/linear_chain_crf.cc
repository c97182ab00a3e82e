#include "crf/linear_chain_crf.h"

#include <algorithm>

#include "tensor/ops.h"

namespace fewner::crf {

using tensor::Shape;
using tensor::Tensor;

namespace {
constexpr float kInvalidScore = -1e7f;
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
  // for bit (the tests hold it to the oracle reference::CrfNll); the comments
  // below give the reason at each step.
  //
  // Crush invalid tags out of every path.  The trailing [Y] broadcast applies
  // the same per-element addition to every lane.
  Tensor masked = tensor::Add(emissions, ValidityMask(valid_tags));  // [B, L, Y]

  // --- log partition function: one masked forward step per timestep ---
  auto emissions_at = [&](int64_t t) {
    return tensor::Reshape(tensor::Slice(masked, 1, t, 1), Shape{lanes, num_tags_});
  };
  // alpha[b, j] = start[j] + masked[b, 0, j]; the trailing broadcast computes
  // emission + start, bitwise-commutative with the per-sentence start + emission.
  Tensor alpha = tensor::Add(emissions_at(0), start_);  // [B, Y]
  // transitions^T hoisted out of the time loop: by_to[b, j, i] = alpha[b, i] +
  // transitions[i, j], built directly in [B, to, from] layout.  Each element
  // is the same float addition, with the same operand order, that the
  // per-sentence hoisted [to, from] recursion produces — so the
  // LogSumExpLastDim rows match it bitwise with no per-timestep [B, Y, Y]
  // transpose (or its backward).
  Tensor trans_by_to = tensor::Transpose(transitions_);  // [to, from]
  for (int64_t t = 1; t < max_len; ++t) {
    Tensor by_to = tensor::Add(tensor::Reshape(alpha, Shape{lanes, 1, num_tags_}),
                               trans_by_to);  // [B, to, from]
    Tensor lse = tensor::Reshape(tensor::LogSumExpLastDim(by_to),
                                 Shape{lanes, num_tags_});
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
  Tensor final_scores = tensor::Add(alpha, end_);  // [B, Y], trailing broadcast
  Tensor log_z = tensor::Reshape(tensor::LogSumExpLastDim(final_scores),
                                 Shape{lanes});  // [B]

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
      float best = kInvalidScore * 2;
      int64_t best_from = -1;
      for (int64_t i = 0; i < y; ++i) {
        if (!is_valid(i)) continue;
        const float candidate =
            score[static_cast<size_t>(i)] + trans[static_cast<size_t>(i * y + j)];
        if (candidate > best) {
          best = candidate;
          best_from = i;
        }
      }
      next[static_cast<size_t>(j)] = best + emit[static_cast<size_t>(t * y + j)];
      backptr[static_cast<size_t>(t * y + j)] = best_from;
    }
    score.swap(next);
  }

  float best_final = kInvalidScore * 2;
  int64_t best_tag = 0;
  for (int64_t j = 0; j < y; ++j) {
    if (!is_valid(j)) continue;
    const float candidate = score[static_cast<size_t>(j)] + end[static_cast<size_t>(j)];
    if (candidate > best_final) {
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
