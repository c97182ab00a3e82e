// Tests for the linear-chain CRF: NLL against brute-force enumeration,
// Viterbi optimality, tag masking and its entry checks, and gradient checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "crf_sentence.h"
#include "nn/module.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace fewner::crf {
namespace {

using tensor::Shape;
using tensor::Tensor;
using crf_testing::SentenceNll;
using crf_testing::SentenceViterbi;

/// Brute-force score of a tag path under the CRF's current parameters.
double PathScore(const LinearChainCrf& crf, const Tensor& emissions,
                 const std::vector<int64_t>& path) {
  auto params = const_cast<LinearChainCrf&>(crf).Parameters();
  const auto& trans = params[0]->data();
  const auto& start = params[1]->data();
  const auto& end = params[2]->data();
  const int64_t y = crf.num_tags();
  double score = start[static_cast<size_t>(path.front())] +
                 end[static_cast<size_t>(path.back())];
  for (size_t t = 0; t < path.size(); ++t) {
    score += emissions.at(static_cast<int64_t>(t) * y + path[t]);
    if (t > 0) score += trans[static_cast<size_t>(path[t - 1] * y + path[t])];
  }
  return score;
}

/// Enumerates all |Y|^L paths (valid-tag-filtered).
std::vector<std::vector<int64_t>> AllPaths(int64_t num_tags, int64_t length,
                                           const std::vector<bool>* valid) {
  std::vector<std::vector<int64_t>> paths;
  std::vector<int64_t> current(static_cast<size_t>(length), 0);
  for (;;) {
    bool ok = true;
    if (valid != nullptr) {
      for (int64_t tag : current) ok = ok && (*valid)[static_cast<size_t>(tag)];
    }
    if (ok) paths.push_back(current);
    int64_t pos = length - 1;
    while (pos >= 0) {
      if (++current[static_cast<size_t>(pos)] < num_tags) break;
      current[static_cast<size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return paths;
}

class CrfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crf_ = std::make_unique<LinearChainCrf>(3);
    util::Rng rng(99);
    // Randomize parameters so the test is not trivially symmetric.
    for (tensor::Tensor* p : crf_->Parameters()) {
      for (float& v : *p->mutable_data()) {
        v = static_cast<float>(rng.Gaussian(0.0, 0.7));
      }
    }
    emissions_ = Tensor::Randn(Shape{4, 3}, &rng, 1.0f, /*requires_grad=*/true);
  }

  std::unique_ptr<LinearChainCrf> crf_;
  Tensor emissions_;
};

TEST_F(CrfTest, NllMatchesBruteForce) {
  const std::vector<int64_t> gold = {0, 2, 1, 2};
  Tensor nll = SentenceNll(*crf_, emissions_, gold);

  double log_z = -1e30;
  for (const auto& path : AllPaths(3, 4, nullptr)) {
    const double s = PathScore(*crf_, emissions_, path);
    log_z = std::max(log_z, s) +
            std::log1p(std::exp(std::min(log_z, s) - std::max(log_z, s)));
  }
  const double expected = log_z - PathScore(*crf_, emissions_, gold);
  EXPECT_NEAR(nll.item(), expected, 1e-3);
}

TEST_F(CrfTest, NllIsNonNegative) {
  for (const auto& path : AllPaths(3, 4, nullptr)) {
    Tensor nll = SentenceNll(*crf_, emissions_, path);
    EXPECT_GE(nll.item(), -1e-4);
  }
}

TEST_F(CrfTest, ViterbiIsArgmaxPath) {
  std::vector<int64_t> decoded = SentenceViterbi(*crf_, emissions_);
  double best = -1e30;
  std::vector<int64_t> best_path;
  for (const auto& path : AllPaths(3, 4, nullptr)) {
    const double s = PathScore(*crf_, emissions_, path);
    if (s > best) {
      best = s;
      best_path = path;
    }
  }
  EXPECT_EQ(decoded, best_path);
}

TEST_F(CrfTest, MaskedNllMatchesRestrictedBruteForce) {
  const std::vector<bool> valid = {true, false, true};  // tag 1 excluded
  const std::vector<int64_t> gold = {0, 2, 0, 2};
  Tensor nll = SentenceNll(*crf_, emissions_, gold, &valid);

  double log_z = -1e30;
  for (const auto& path : AllPaths(3, 4, &valid)) {
    const double s = PathScore(*crf_, emissions_, path);
    log_z = std::max(log_z, s) +
            std::log1p(std::exp(std::min(log_z, s) - std::max(log_z, s)));
  }
  const double expected = log_z - PathScore(*crf_, emissions_, gold);
  EXPECT_NEAR(nll.item(), expected, 1e-3);
}

TEST_F(CrfTest, MaskedViterbiAvoidsInvalidTags) {
  const std::vector<bool> valid = {true, false, true};
  std::vector<int64_t> decoded = SentenceViterbi(*crf_, emissions_, &valid);
  for (int64_t tag : decoded) EXPECT_NE(tag, 1);
}

TEST_F(CrfTest, GradCheckEmissions) {
  const std::vector<int64_t> gold = {1, 0, 2, 1};
  Tensor nll = SentenceNll(*crf_, emissions_, gold);
  auto g = tensor::autodiff::Grad(nll, {emissions_});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < emissions_.numel(); ++i) {
    std::vector<float> plus = emissions_.data(), minus = emissions_.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    const float lp =
        SentenceNll(*crf_, Tensor::FromData(emissions_.shape(), plus), gold)
            .item();
    const float lm =
        SentenceNll(*crf_, Tensor::FromData(emissions_.shape(), minus), gold)
            .item();
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 2e-2) << "emission " << i;
  }
}

TEST_F(CrfTest, GradCheckTransitions) {
  const std::vector<int64_t> gold = {1, 0, 2, 1};
  Tensor nll = SentenceNll(*crf_, emissions_, gold);
  Tensor trans = *crf_->Parameters()[0];
  auto g = tensor::autodiff::Grad(nll, {trans});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < trans.numel(); ++i) {
    std::vector<float>* values = crf_->Parameters()[0]->mutable_data();
    const float saved = (*values)[static_cast<size_t>(i)];
    (*values)[static_cast<size_t>(i)] = saved + eps;
    const float lp = SentenceNll(*crf_, emissions_, gold).item();
    (*values)[static_cast<size_t>(i)] = saved - eps;
    const float lm = SentenceNll(*crf_, emissions_, gold).item();
    (*values)[static_cast<size_t>(i)] = saved;
    EXPECT_NEAR(g[0].at(i), (lp - lm) / (2 * eps), 2e-2) << "transition " << i;
  }
}

TEST_F(CrfTest, HoistedRecursionMatchesPerTimestepTransposeBitwise) {
  // The forward algorithm now hoists transitionsᵀ out of the time loop and
  // builds by_to[j, i] = alpha[i] + transitions[i, j] directly in [to, from]
  // layout.  This test reconstructs the previous formulation — alpha broadcast
  // down the columns of transitions followed by a materialized [Y, Y]
  // Transpose every timestep — and requires the NLL *and* every parameter
  // gradient to be bitwise-identical, not merely close.
  const int64_t y = 3;
  const int64_t length = 4;
  const std::vector<int64_t> gold = {1, 0, 2, 1};
  Tensor trans = *crf_->Parameters()[0];
  Tensor start = *crf_->Parameters()[1];
  Tensor end = *crf_->Parameters()[2];

  Tensor nll_new = SentenceNll(*crf_, emissions_, gold);
  auto g_new = tensor::autodiff::Grad(nll_new, {emissions_, trans, start, end});

  // Old formulation, reconstructed op-for-op (ValidityMask with no mask is a
  // broadcast add of zeros, reproduced literally to keep the graphs aligned).
  Tensor masked = tensor::Add(
      emissions_, Tensor::FromData(Shape{y}, std::vector<float>(y, 0.0f)));
  Tensor alpha = tensor::Add(tensor::Reshape(start, Shape{1, y}),
                             tensor::Slice(masked, 0, 0, 1));
  for (int64_t t = 1; t < length; ++t) {
    Tensor scores = tensor::Add(tensor::Reshape(alpha, Shape{y, 1}), trans);
    Tensor lse = tensor::Reshape(
        tensor::LogSumExpLastDim(tensor::Transpose(scores)), Shape{1, y});
    alpha = tensor::Add(lse, tensor::Slice(masked, 0, t, 1));
  }
  Tensor log_z = tensor::Reshape(
      tensor::LogSumExpLastDim(tensor::Add(alpha, end)), Shape{});

  std::vector<float> emit_mask(static_cast<size_t>(length * y), 0.0f);
  for (int64_t t = 0; t < length; ++t) {
    emit_mask[static_cast<size_t>(t * y + gold[static_cast<size_t>(t)])] = 1.0f;
  }
  std::vector<float> trans_count(static_cast<size_t>(y * y), 0.0f);
  for (int64_t t = 1; t < length; ++t) {
    trans_count[static_cast<size_t>(gold[static_cast<size_t>(t - 1)] * y +
                                    gold[static_cast<size_t>(t)])] += 1.0f;
  }
  std::vector<float> start_mask(static_cast<size_t>(y), 0.0f);
  start_mask[static_cast<size_t>(gold.front())] = 1.0f;
  std::vector<float> end_mask(static_cast<size_t>(y), 0.0f);
  end_mask[static_cast<size_t>(gold.back())] = 1.0f;
  Tensor gold_score = tensor::Add(
      tensor::Add(
          tensor::SumAll(tensor::Mul(
              masked,
              Tensor::FromData(Shape{length, y}, std::move(emit_mask)))),
          tensor::SumAll(tensor::Mul(
              trans, Tensor::FromData(Shape{y, y}, std::move(trans_count))))),
      tensor::Add(
          tensor::SumAll(tensor::Mul(
              start, Tensor::FromData(Shape{y}, std::move(start_mask)))),
          tensor::SumAll(tensor::Mul(
              end, Tensor::FromData(Shape{y}, std::move(end_mask))))));
  Tensor nll_old = tensor::Sub(log_z, gold_score);
  auto g_old = tensor::autodiff::Grad(nll_old, {emissions_, trans, start, end});

  ASSERT_EQ(std::memcmp(nll_new.data().data(), nll_old.data().data(),
                        sizeof(float)),
            0);
  for (size_t i = 0; i < g_new.size(); ++i) {
    ASSERT_EQ(g_new[i].numel(), g_old[i].numel());
    EXPECT_EQ(std::memcmp(g_new[i].data().data(), g_old[i].data().data(),
                          static_cast<size_t>(g_new[i].numel()) * sizeof(float)),
              0)
        << "gradient " << i << " diverges from the per-timestep-transpose path";
  }
}

TEST_F(CrfTest, TrainingOnFixedPatternLearnsIt) {
  // Repeatedly minimizing the NLL of one path must make Viterbi decode it.
  const std::vector<int64_t> gold = {0, 1, 2, 0};
  util::Rng rng(7);
  Tensor fixed_emissions = Tensor::Randn(Shape{4, 3}, &rng, 0.1f);
  for (int step = 0; step < 80; ++step) {
    Tensor nll = SentenceNll(*crf_, fixed_emissions, gold);
    auto params = nn::ParameterTensors(crf_.get());
    auto grads = tensor::autodiff::Grad(nll, params);
    for (size_t i = 0; i < params.size(); ++i) {
      std::vector<float>* values = crf_->Parameters()[i]->mutable_data();
      for (size_t j = 0; j < values->size(); ++j) {
        (*values)[j] -= 0.2f * grads[i].at(static_cast<int64_t>(j));
      }
    }
  }
  EXPECT_EQ(SentenceViterbi(*crf_, fixed_emissions), gold);
}

TEST(CrfEdgeTest, SingleTokenSentence) {
  LinearChainCrf crf(4);
  util::Rng rng(1);
  Tensor emissions = Tensor::Randn(Shape{1, 4}, &rng);
  Tensor nll = SentenceNll(crf, emissions, {2});
  EXPECT_GE(nll.item(), -1e-4);
  auto decoded = SentenceViterbi(crf, emissions);
  EXPECT_EQ(decoded.size(), 1u);
}

TEST(CrfEdgeTest, SecondOrderThroughNll) {
  // The FEWNER meta-gradient differentiates through grad(NLL); ensure the
  // log-space forward algorithm supports create_graph.
  LinearChainCrf crf(2);
  util::Rng rng(3);
  Tensor emissions = Tensor::Randn(Shape{3, 2}, &rng, 1.0f, true);
  Tensor nll = SentenceNll(crf, emissions, {0, 1, 0});
  auto g1 = tensor::autodiff::Grad(nll, {emissions}, /*create_graph=*/true);
  Tensor g_sum = tensor::SumAll(tensor::Square(g1[0]));
  auto g2 = tensor::autodiff::Grad(g_sum, {emissions});
  EXPECT_EQ(g2[0].shape(), emissions.shape());
  double norm = 0;
  for (float v : g2[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 1e-6);  // non-degenerate second-order signal
}

TEST(CrfEdgeTest, ViterbiDecodesValidTagsOnExtremeScores) {
  // Every candidate of a lane at or below −2e7, NaN or −inf: each max starts
  // from the first valid candidate, so no backpointer is left at −1, and the
  // final pick is a valid tag when tag 0 is masked out.  Lane 1 is ordinary
  // but for one extreme row.
  LinearChainCrf crf(3);
  util::Rng rng(17);
  for (tensor::Tensor* p : crf.Parameters()) {
    for (float& v : *p->mutable_data()) v = static_cast<float>(rng.Gaussian(0.0, 0.7));
  }
  const std::vector<bool> without_tag0 = {false, true, true};
  for (const float extreme :
       {-3e7f, std::nanf(""), -std::numeric_limits<float>::infinity()}) {
    for (const std::vector<bool>* valid : {static_cast<const std::vector<bool>*>(nullptr),
                                           &without_tag0}) {
      std::vector<float> values(2 * 3 * 3, extreme);
      for (size_t i = 9; i < values.size(); ++i) {
        if (i < 12 || i >= 15) values[i] = static_cast<float>(rng.Gaussian());
      }
      const auto paths =
          crf.ViterbiBatch(Tensor::FromData(Shape{2, 3, 3}, std::move(values)), {3, 3}, valid);
      ASSERT_EQ(paths.size(), 2u);
      for (const auto& path : paths) {
        ASSERT_EQ(path.size(), 3u);
        for (int64_t tag : path) {
          ASSERT_GE(tag, 0) << "score " << extreme;
          ASSERT_LT(tag, 3) << "score " << extreme;
          if (valid != nullptr) {
            EXPECT_TRUE((*valid)[static_cast<size_t>(tag)]) << "score " << extreme;
          }
        }
      }
    }
  }
}

// A mask is checked at entry, before any read: a short mask would index past
// its end, and an all-false mask would leave Viterbi backtracking through -1
// backpointers.
TEST(CrfMaskDeathTest, ViterbiBatchRejectsShortOrAllFalseMask) {
  LinearChainCrf crf(3);
  util::Rng rng(5);
  Tensor emissions = Tensor::Randn(Shape{1, 4, 3}, &rng);
  const std::vector<bool> short_mask = {true, true};
  EXPECT_DEATH(crf.ViterbiBatch(emissions, {4}, &short_mask),
               "valid_tags has 2 entries for 3 tags");
  const std::vector<bool> all_false(3, false);
  EXPECT_DEATH(crf.ViterbiBatch(emissions, {4}, &all_false),
               "valid_tags marks no tag valid");
}

TEST(CrfMaskDeathTest, NllRejectsShortOrAllFalseMask) {
  LinearChainCrf crf(3);
  util::Rng rng(6);
  Tensor emissions = Tensor::Randn(Shape{1, 4, 3}, &rng);
  const std::vector<int64_t> gold = {0, 2, 2, 1};
  const std::vector<bool> short_mask = {true, true};
  EXPECT_DEATH(crf.NegLogLikelihoodBatch(emissions, gold, {4}, &short_mask),
               "valid_tags has 2 entries for 3 tags");
  const std::vector<bool> all_false(3, false);
  EXPECT_DEATH(crf.NegLogLikelihoodBatch(emissions, gold, {4}, &all_false),
               "valid_tags marks no tag valid");
}

TEST(CrfPropertyTest, ViterbiMatchesBruteForceOnRandomInstances) {
  // 200 random (T, N, params, emissions) instances, T <= 6 and N <= 4 so the
  // N^T enumeration stays cheap; every third instance also draws a random
  // valid-tag mask.  Viterbi must return exactly the enumeration argmax.
  // Ties are broken toward the lexicographically... in practice Gaussian
  // scores never tie, so we simply require the scores to match and, when the
  // brute-force argmax is unique, the paths too.
  util::Rng rng(2024);
  for (int instance = 0; instance < 200; ++instance) {
    const int64_t num_tags = 1 + static_cast<int64_t>(rng.UniformInt(4));  // 1..4
    const int64_t length = 1 + static_cast<int64_t>(rng.UniformInt(6));    // 1..6
    LinearChainCrf crf(num_tags);
    for (tensor::Tensor* p : crf.Parameters()) {
      for (float& v : *p->mutable_data()) {
        v = static_cast<float>(rng.Gaussian(0.0, 1.0));
      }
    }
    Tensor emissions = Tensor::Randn(Shape{length, num_tags}, &rng, 1.0f);

    std::vector<bool> valid(static_cast<size_t>(num_tags), true);
    bool masked = instance % 3 == 0 && num_tags > 1;
    if (masked) {
      // Random mask with at least one valid tag.
      bool any = false;
      for (size_t j = 0; j < valid.size(); ++j) {
        valid[j] = rng.UniformInt(2) == 0;
        any = any || valid[j];
      }
      if (!any) valid[rng.UniformInt(static_cast<uint64_t>(num_tags))] = true;
    }
    const std::vector<bool>* mask = masked ? &valid : nullptr;

    std::vector<int64_t> best_path;
    double best_score = -1e300;
    int ties = 0;
    for (const auto& path : AllPaths(num_tags, length, mask)) {
      const double s = PathScore(crf, emissions, path);
      if (s > best_score) {
        best_score = s;
        best_path = path;
        ties = 1;
      } else if (s == best_score) {
        ++ties;
      }
    }
    ASSERT_FALSE(best_path.empty());

    std::vector<int64_t> viterbi = SentenceViterbi(crf, emissions, mask);
    const double viterbi_score = PathScore(crf, emissions, viterbi);
    EXPECT_NEAR(viterbi_score, best_score, 1e-3)
        << "instance " << instance << " T=" << length << " N=" << num_tags;
    if (ties == 1) {
      EXPECT_EQ(viterbi, best_path) << "instance " << instance;
    }
    if (masked) {
      for (int64_t tag : viterbi) EXPECT_TRUE(valid[static_cast<size_t>(tag)]);
    }
  }
}

// ----- the fused log-partition op -----
//
// NegLogLikelihoodBatch computes log Z through one op whose forward and
// first-order backward are kernels and whose create_graph backward
// differentiates the composite.  The composite below is the definition: the
// batched NLL as it was built before the op, rebuilt op for op.  Every value
// (the NLL, first-order grads from the kernel and from the graph branch, and
// second-order grads) must match it bit for bit on random ragged batches.

/// The batched NLL built from tensor ops alone, op for op: the masked
/// per-timestep forward (hoisted transitionsᵀ, LogSumExpLastDim, Where carry
/// of finished lanes) and the gold score from constant selection masks.
Tensor CompositeNll(const LinearChainCrf& crf, const Tensor& emissions,
                    const std::vector<int64_t>& tags,
                    const std::vector<int64_t>& lengths,
                    const std::vector<bool>* valid_tags) {
  auto params = const_cast<LinearChainCrf&>(crf).Parameters();
  const Tensor& transitions = *params[0];
  const Tensor& start = *params[1];
  const Tensor& end = *params[2];
  const int64_t lanes = emissions.shape().dim(0);
  const int64_t max_len = emissions.shape().dim(1);
  const int64_t y = crf.num_tags();
  std::vector<float> mask(static_cast<size_t>(y), 0.0f);
  for (int64_t j = 0; j < y; ++j) {
    if (valid_tags != nullptr && !(*valid_tags)[static_cast<size_t>(j)]) {
      mask[static_cast<size_t>(j)] = -1e7f;
    }
  }
  Tensor masked = tensor::Add(emissions, Tensor::FromData(Shape{y}, std::move(mask)));
  auto emissions_at = [&](int64_t t) {
    return tensor::Reshape(tensor::Slice(masked, 1, t, 1), Shape{lanes, y});
  };
  Tensor alpha = tensor::Add(emissions_at(0), start);
  Tensor trans_by_to = tensor::Transpose(transitions);
  for (int64_t t = 1; t < max_len; ++t) {
    Tensor by_to =
        tensor::Add(tensor::Reshape(alpha, Shape{lanes, 1, y}), trans_by_to);
    Tensor lse = tensor::Reshape(tensor::LogSumExpLastDim(by_to), Shape{lanes, y});
    Tensor alpha_new = tensor::Add(lse, emissions_at(t));
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
  Tensor log_z = tensor::Reshape(
      tensor::LogSumExpLastDim(tensor::Add(alpha, end)), Shape{lanes});

  std::vector<float> emit_mask(static_cast<size_t>(lanes * max_len * y), 0.0f);
  std::vector<float> trans_count(static_cast<size_t>(lanes * y * y), 0.0f);
  std::vector<float> start_mask(static_cast<size_t>(lanes * y), 0.0f);
  std::vector<float> end_mask(static_cast<size_t>(lanes * y), 0.0f);
  for (int64_t b = 0; b < lanes; ++b) {
    const int64_t len = lengths[static_cast<size_t>(b)];
    const int64_t* lane_tags = tags.data() + b * max_len;
    for (int64_t t = 0; t < len; ++t) {
      emit_mask[static_cast<size_t>((b * max_len + t) * y + lane_tags[t])] = 1.0f;
    }
    for (int64_t t = 1; t < len; ++t) {
      trans_count[static_cast<size_t>((b * y + lane_tags[t - 1]) * y + lane_tags[t])] +=
          1.0f;
    }
    start_mask[static_cast<size_t>(b * y + lane_tags[0])] = 1.0f;
    end_mask[static_cast<size_t>(b * y + lane_tags[len - 1])] = 1.0f;
  }
  Tensor gold_emit = tensor::RowSum(tensor::Reshape(
      tensor::Mul(masked, Tensor::FromData(Shape{lanes, max_len, y}, std::move(emit_mask))),
      Shape{lanes, max_len * y}));
  Tensor gold_trans = tensor::RowSum(tensor::Reshape(
      tensor::Mul(Tensor::FromData(Shape{lanes, y, y}, std::move(trans_count)),
                  transitions),
      Shape{lanes, y * y}));
  Tensor gold_start = tensor::RowSum(
      tensor::Mul(Tensor::FromData(Shape{lanes, y}, std::move(start_mask)), start));
  Tensor gold_end = tensor::RowSum(
      tensor::Mul(Tensor::FromData(Shape{lanes, y}, std::move(end_mask)), end));
  Tensor gold_score =
      tensor::Add(tensor::Add(gold_emit, gold_trans), tensor::Add(gold_start, gold_end));
  return tensor::Sub(log_z, gold_score);
}

void ExpectSameBits(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto& av = a.data();
  const auto& bv = b.data();
  for (size_t i = 0; i < av.size(); ++i) {
    if (std::memcmp(&av[i], &bv[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " is " << av[i] << " vs "
                    << bv[i] << " (signbits " << std::signbit(av[i]) << "/"
                    << std::signbit(bv[i]) << ")";
      return;
    }
  }
}

/// A Gaussian draw that is +0 or −0 one time in eight each.
float DrawWithZeros(util::Rng* rng, double stddev) {
  switch (rng->UniformInt(8)) {
    case 0:
      return 0.0f;
    case 1:
      return -0.0f;
    default:
      return static_cast<float>(rng->Gaussian(0.0, stddev));
  }
}

TEST(CrfLogPartitionTest, FusedOpMatchesCompositeBitwiseOnRaggedBatches) {
  util::Rng rng(1907);
  for (int instance = 0; instance < 160; ++instance) {
    const int64_t lanes = 1 + static_cast<int64_t>(rng.UniformInt(9));     // 1..9
    const int64_t y = 1 + static_cast<int64_t>(rng.UniformInt(6));         // 1..6
    const int64_t max_len = 1 + static_cast<int64_t>(rng.UniformInt(8));   // 1..8
    LinearChainCrf crf(y);
    for (tensor::Tensor* p : crf.Parameters()) {
      for (float& v : *p->mutable_data()) v = DrawWithZeros(&rng, 0.7);
    }
    // Lengths: all equal, free, all short of max_len (every lane finishes
    // before the last step), and one-token lanes among longer ones.
    std::vector<int64_t> lengths(static_cast<size_t>(lanes));
    for (int64_t b = 0; b < lanes; ++b) {
      int64_t len = max_len;
      switch (instance % 4) {
        case 1:
          len = 1 + static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(max_len)));
          break;
        case 2:
          len = max_len > 1 ? 1 + static_cast<int64_t>(rng.UniformInt(
                                      static_cast<uint64_t>(max_len - 1)))
                            : 1;
          break;
        case 3:
          len = b % 2 == 0 ? 1 : max_len;
          break;
        default:
          break;
      }
      lengths[static_cast<size_t>(b)] = len;
    }
    std::vector<bool> valid(static_cast<size_t>(y), true);
    const bool use_mask = instance % 3 == 0;
    if (use_mask) {
      bool any = false;
      for (size_t j = 0; j < valid.size(); ++j) {
        valid[j] = rng.UniformInt(2) == 0;
        any = any || valid[j];
      }
      if (!any) valid[rng.UniformInt(static_cast<uint64_t>(y))] = true;
    }
    const std::vector<bool>* mask = use_mask ? &valid : nullptr;
    std::vector<int64_t> tags(static_cast<size_t>(lanes * max_len), 0);
    for (int64_t& tag : tags) {
      do {
        tag = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(y)));
      } while (!valid[static_cast<size_t>(tag)]);
    }
    std::vector<float> emit_values(static_cast<size_t>(lanes * max_len * y));
    for (float& v : emit_values) v = DrawWithZeros(&rng, 1.0);
    Tensor emissions = Tensor::FromData(Shape{lanes, max_len, y}, std::move(emit_values),
                                        /*requires_grad=*/true);
    // Per-lane loss weights, signed and sometimes ±0, so each lane's upstream
    // grad differs and signed zeros flow through the backward.
    std::vector<float> weight_values(static_cast<size_t>(lanes));
    for (float& w : weight_values) w = DrawWithZeros(&rng, 1.0);
    Tensor weights = Tensor::FromData(Shape{lanes}, std::move(weight_values));
    auto params = crf.Parameters();
    const std::vector<Tensor> inputs = {emissions, *params[0], *params[1], *params[2]};
    const std::vector<std::string> names = {"emissions", "transitions", "start", "end"};
    const std::string where = "instance " + std::to_string(instance) +
                              " B=" + std::to_string(lanes) + " Y=" + std::to_string(y) +
                              " L=" + std::to_string(max_len);

    Tensor nll_op = crf.NegLogLikelihoodBatch(emissions, tags, lengths, mask);
    Tensor nll_ref = CompositeNll(crf, emissions, tags, lengths, mask);
    ExpectSameBits(nll_op, nll_ref, "NLL, " + where);
    Tensor loss_op = tensor::SumAllFloat(tensor::Mul(nll_op, weights));
    Tensor loss_ref = tensor::SumAllFloat(tensor::Mul(nll_ref, weights));

    // First order, all four inputs: the kernel against the composite's
    // eval-mode backward.
    const auto kernel = tensor::autodiff::Grad(loss_op, inputs);
    const auto reference = tensor::autodiff::Grad(loss_ref, inputs);
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(kernel[i], reference[i], "first-order d" + names[i] + ", " + where);
    }
    // Emissions only (the test-time φ-step's mask: no CRF parameter grads).
    ExpectSameBits(tensor::autodiff::Grad(loss_op, {emissions})[0], reference[0],
                   "first-order demissions alone, " + where);
    // The graph branch (create_graph) gives the same values as the kernel.
    const auto graph = tensor::autodiff::Grad(loss_op, inputs, /*create_graph=*/true);
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(graph[i], kernel[i], "graph-branch d" + names[i] + ", " + where);
    }
    // Second order: the grad of Σ(∂loss/∂emissions)².
    auto second_order = [&](const Tensor& loss) {
      Tensor d_emissions = tensor::autodiff::Grad(loss, {emissions}, true)[0];
      return tensor::autodiff::Grad(tensor::SumAll(tensor::Square(d_emissions)), inputs);
    };
    const auto second_op = second_order(loss_op);
    const auto second_ref = second_order(loss_ref);
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectSameBits(second_op[i], second_ref[i],
                     "second-order d" + names[i] + ", " + where);
    }
    if (HasFailure()) return;
  }
}

TEST(CrfLogPartitionTest, LogZIsOneGraphNodePerCall) {
  // The whole forward recursion is one node: the NLL's graph does not grow
  // with sentence length.
  LinearChainCrf crf(4);
  util::Rng rng(8);
  auto graph_size = [&](int64_t max_len) {
    Tensor emissions = Tensor::Randn(Shape{3, max_len, 4}, &rng, 1.0f, true);
    std::vector<int64_t> tags(static_cast<size_t>(3 * max_len), 1);
    return tensor::autodiff::GraphSize(
        crf.NegLogLikelihoodBatch(emissions, tags, {max_len, 1, max_len - 1}));
  };
  EXPECT_EQ(graph_size(3), graph_size(30));
}

TEST(CrfLogPartitionTest, GradsOnOneNllStayExactAfterACreateGraphGrad) {
  // A create_graph Grad re-points log Z's visible node at the composite it
  // rebuilt, mid-walk.  Every later Grad on the same NLL, first order or
  // create_graph, must still give the composite's bits; the first-order ones
  // then run the composite's per-step closures instead of the kernel, which
  // the grown graph shows.
  util::Rng rng(1913);
  const int64_t lanes = 3;
  const int64_t y = 4;
  const int64_t max_len = 5;
  const std::vector<int64_t> lengths = {5, 1, 3};
  const std::vector<bool> valid = {true, false, true, true};
  LinearChainCrf crf(y);
  for (tensor::Tensor* p : crf.Parameters()) {
    for (float& v : *p->mutable_data()) v = DrawWithZeros(&rng, 0.7);
  }
  std::vector<int64_t> tags(static_cast<size_t>(lanes * max_len));
  for (int64_t& tag : tags) {
    do {
      tag = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(y)));
    } while (!valid[static_cast<size_t>(tag)]);
  }
  std::vector<float> emit_values(static_cast<size_t>(lanes * max_len * y));
  for (float& v : emit_values) v = DrawWithZeros(&rng, 1.0);
  Tensor emissions = Tensor::FromData(Shape{lanes, max_len, y}, std::move(emit_values),
                                      /*requires_grad=*/true);
  std::vector<float> weight_values(static_cast<size_t>(lanes));
  for (float& w : weight_values) w = DrawWithZeros(&rng, 1.0);
  Tensor weights = Tensor::FromData(Shape{lanes}, std::move(weight_values));
  auto params = crf.Parameters();
  const std::vector<Tensor> inputs = {emissions, *params[0], *params[1], *params[2]};
  const std::vector<std::string> names = {"emissions", "transitions", "start", "end"};
  auto loss_of = [&](const Tensor& nll) {
    return tensor::SumAllFloat(tensor::Mul(nll, weights));
  };
  const auto reference = tensor::autodiff::Grad(
      loss_of(CompositeNll(crf, emissions, tags, lengths, &valid)), inputs);

  const Tensor loss = loss_of(crf.NegLogLikelihoodBatch(emissions, tags, lengths, &valid));
  const int64_t fused_size = tensor::autodiff::GraphSize(loss);
  const auto before = tensor::autodiff::Grad(loss, inputs);
  const auto graph = tensor::autodiff::Grad(loss, inputs, /*create_graph=*/true);
  EXPECT_GT(tensor::autodiff::GraphSize(loss), fused_size);
  const auto after = tensor::autodiff::Grad(loss, inputs);
  const auto graph_again = tensor::autodiff::Grad(loss, inputs, /*create_graph=*/true);
  for (size_t i = 0; i < inputs.size(); ++i) {
    ExpectSameBits(before[i], reference[i], "first order before, d" + names[i]);
    ExpectSameBits(graph[i], reference[i], "create_graph, d" + names[i]);
    ExpectSameBits(after[i], reference[i], "first order after, d" + names[i]);
    ExpectSameBits(graph_again[i], reference[i], "create_graph again, d" + names[i]);
  }
}

}  // namespace
}  // namespace fewner::crf
