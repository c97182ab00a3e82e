// Property-based parameterized sweeps (TEST_P) over randomized inputs:
// broadcasting semantics vs. a reference implementation, gradient checks for
// random graphs, CRF invariants across tag-set/length grids, BIO round-trips,
// and episode-sampler guarantees across (N, K) configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "crf/linear_chain_crf.h"
#include "crf_sentence.h"
#include "data/episode_sampler.h"
#include "data/synthetic.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "text/bio.h"
#include "util/rng.h"

namespace fewner {
namespace {

using tensor::Shape;
using tensor::Tensor;
using crf_testing::SentenceNll;
using crf_testing::SentenceViterbi;

// ---------------------------------------------------------------- broadcasting

struct BroadcastCase {
  std::vector<int64_t> a;
  std::vector<int64_t> b;
};

// Prints a case as its shapes, e.g. "a2x3x4_b1x4". Test discovery names each
// case after this text; the default would print the vectors' raw bytes, heap
// addresses included, so the test names would change from one build to the next.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  auto dims = [](const std::vector<int64_t>& shape) {
    if (shape.empty()) return std::string("scalar");
    std::string out;
    for (size_t i = 0; i < shape.size(); ++i) {
      if (i > 0) out += "x";
      out += std::to_string(shape[i]);
    }
    return out;
  };
  *os << "a" << dims(c.a) << "_b" << dims(c.b);
}

class BroadcastProperty : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastProperty, AddMatchesReferenceLoop) {
  const auto& param = GetParam();
  Shape sa{std::vector<int64_t>(param.a)};
  Shape sb{std::vector<int64_t>(param.b)};
  util::Rng rng(17 + sa.numel() * 31 + sb.numel());
  Tensor a = Tensor::Randn(sa, &rng);
  Tensor b = Tensor::Randn(sb, &rng);
  Tensor out = Add(a, b);

  Shape expected = tensor::Shape::Broadcast(sa, sb).value();
  ASSERT_EQ(out.shape(), expected);
  // Reference: index arithmetic per element.
  const auto out_dims = expected.dims();
  for (int64_t flat = 0; flat < expected.numel(); ++flat) {
    // Decompose flat index into coordinates.
    std::vector<int64_t> coords(out_dims.size());
    int64_t rest = flat;
    for (int64_t d = static_cast<int64_t>(out_dims.size()) - 1; d >= 0; --d) {
      coords[static_cast<size_t>(d)] = rest % out_dims[static_cast<size_t>(d)];
      rest /= out_dims[static_cast<size_t>(d)];
    }
    auto value_of = [&](const Tensor& t) {
      const Shape& shape = t.shape();
      const int64_t offset = expected.rank() - shape.rank();
      int64_t index = 0;
      for (int64_t d = 0; d < shape.rank(); ++d) {
        const int64_t coord =
            shape.dim(d) == 1 ? 0 : coords[static_cast<size_t>(d + offset)];
        index = index * shape.dim(d) + coord;
      }
      return t.at(index);
    };
    EXPECT_NEAR(out.at(flat), value_of(a) + value_of(b), 1e-5) << "flat " << flat;
  }
}

TEST_P(BroadcastProperty, SumToIsAdjointOfBroadcastTo) {
  // <BroadcastTo(x, S), y> == <x, SumTo(y, shape(x))> for all x, y — the
  // defining adjoint identity that makes broadcasting backward correct.
  const auto& param = GetParam();
  Shape small{std::vector<int64_t>(param.b)};
  Shape big = tensor::Shape::Broadcast(Shape{std::vector<int64_t>(param.a)}, small)
                  .value();
  if (!small.BroadcastableTo(big)) GTEST_SKIP();
  util::Rng rng(23);
  Tensor x = Tensor::Randn(small, &rng);
  Tensor y = Tensor::Randn(big, &rng);
  const float lhs = SumAll(Mul(BroadcastTo(x, big), y)).item();
  const float rhs = SumAll(Mul(x, SumTo(y, small))).item();
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(BroadcastCase{{3, 4}, {4}}, BroadcastCase{{3, 4}, {3, 1}},
                      BroadcastCase{{2, 3, 4}, {3, 4}},
                      BroadcastCase{{2, 3, 4}, {1, 4}}, BroadcastCase{{5}, {}},
                      BroadcastCase{{2, 1, 4}, {1, 3, 1}},
                      BroadcastCase{{4, 4}, {4, 4}}));

// ---------------------------------------------------------------- grad checks

class RandomGraphGradProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphGradProperty, NumericalGradientAgrees) {
  // Builds a random smooth expression from a fixed op menu and finite-diffs it.
  const int seed = GetParam();
  util::Rng rng(static_cast<uint64_t>(seed));
  Tensor x = Tensor::Randn(Shape{3, 4}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(Shape{4, 2}, &rng, 0.5f);

  auto loss_fn = [&](const Tensor& input) {
    Tensor h = MatMul(input, w);                     // [3, 2]
    switch (seed % 4) {
      case 0:
        h = Sigmoid(h);
        break;
      case 1:
        h = Tanh(h);
        break;
      case 2:
        h = Exp(MulScalar(h, 0.3f));
        break;
      default:
        h = Mul(h, Sigmoid(h));
        break;
    }
    Tensor pooled = (seed % 2 == 0) ? SumAxis(h, 0, false) : MaxAxis(h, 0, false);
    return SumAll(Square(pooled));
  };

  Tensor loss = loss_fn(x);
  auto grads = tensor::autodiff::Grad(loss, {x});
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    std::vector<float> plus = x.data(), minus = x.data();
    plus[static_cast<size_t>(i)] += eps;
    minus[static_cast<size_t>(i)] -= eps;
    const float numeric = (loss_fn(Tensor::FromData(x.shape(), plus)).item() -
                           loss_fn(Tensor::FromData(x.shape(), minus)).item()) /
                          (2 * eps);
    EXPECT_NEAR(grads[0].at(i), numeric, 5e-2f) << "seed " << seed << " elt " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphGradProperty, ::testing::Range(0, 8));

// ---------------------------------------------------------------- CRF grid

struct CrfCase {
  int64_t num_tags;
  int64_t length;
};

class CrfProperty : public ::testing::TestWithParam<CrfCase> {};

TEST_P(CrfProperty, NllNonNegativeAndViterbiIsModal) {
  const auto& param = GetParam();
  crf::LinearChainCrf crf(param.num_tags);
  util::Rng rng(static_cast<uint64_t>(param.num_tags * 100 + param.length));
  for (tensor::Tensor* p : crf.Parameters()) {
    for (float& v : *p->mutable_data()) v = static_cast<float>(rng.Gaussian(0, 0.5));
  }
  Tensor emissions =
      Tensor::Randn(Shape{param.length, param.num_tags}, &rng, 1.0f);

  std::vector<int64_t> decoded = SentenceViterbi(crf, emissions);
  ASSERT_EQ(static_cast<int64_t>(decoded.size()), param.length);
  const float decoded_nll = SentenceNll(crf, emissions, decoded).item();
  EXPECT_GE(decoded_nll, -1e-3);

  // The Viterbi path's NLL must lower-bound any random path's NLL.
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<int64_t> random_path(static_cast<size_t>(param.length));
    for (auto& tag : random_path) {
      tag = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(param.num_tags)));
    }
    const float random_nll = SentenceNll(crf, emissions, random_path).item();
    EXPECT_GE(random_nll, decoded_nll - 1e-3);
  }
}

TEST_P(CrfProperty, ProbabilitiesOfAllPathsSumToOneOnTinyInstances) {
  const auto& param = GetParam();
  if (std::pow(static_cast<double>(param.num_tags), static_cast<double>(param.length)) >
      400.0) {
    GTEST_SKIP() << "enumeration too large";
  }
  crf::LinearChainCrf crf(param.num_tags);
  util::Rng rng(99);
  Tensor emissions =
      Tensor::Randn(Shape{param.length, param.num_tags}, &rng, 1.0f);
  // Enumerate all paths; sum of exp(-NLL) must be 1.
  double total = 0.0;
  std::vector<int64_t> path(static_cast<size_t>(param.length), 0);
  for (;;) {
    total += std::exp(-SentenceNll(crf, emissions, path).item());
    int64_t pos = param.length - 1;
    while (pos >= 0) {
      if (++path[static_cast<size_t>(pos)] < param.num_tags) break;
      path[static_cast<size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  EXPECT_NEAR(total, 1.0, 1e-3);
}

/// Randomizes `crf`'s parameters (σ=0.5), then returns lane-major padded
/// emissions [lanes, max_len, Y] holding N(0, 1) in each lane's first
/// lengths[b] rows and N(0, 40) junk in its padded rows.
std::vector<float> RaggedCrfBatch(crf::LinearChainCrf* crf,
                                  const std::vector<int64_t>& lengths,
                                  int64_t max_len, util::Rng* rng) {
  for (tensor::Tensor* p : crf->Parameters()) {
    for (float& v : *p->mutable_data()) v = static_cast<float>(rng->Gaussian(0, 0.5));
  }
  const int64_t lanes = static_cast<int64_t>(lengths.size());
  const int64_t num_tags = crf->num_tags();
  std::vector<float> values(static_cast<size_t>(lanes * max_len * num_tags));
  for (int64_t b = 0; b < lanes; ++b) {
    for (int64_t t = 0; t < max_len; ++t) {
      const double scale = t < lengths[static_cast<size_t>(b)] ? 1.0 : 40.0;
      for (int64_t y = 0; y < num_tags; ++y) {
        values[static_cast<size_t>((b * max_len + t) * num_tags + y)] =
            static_cast<float>(rng->Gaussian(0, scale));
      }
    }
  }
  return values;
}

TEST(CrfRaggedBatchProperty, ProbabilitiesOfAllPathsSumToOnePerPaddedLane) {
  // One [3, 3, Y] batch with lane lengths 3, 1 and 2: the short lanes carry
  // alpha through padded timesteps whose emissions hold large junk values,
  // which must not reach any lane's partition function.  Per lane, the sum of
  // exp(-NLL) over all of its paths must be 1.
  const int64_t num_tags = 3;
  const std::vector<int64_t> lengths = {3, 1, 2};
  const int64_t lanes = 3, max_len = 3;
  crf::LinearChainCrf crf(num_tags);
  util::Rng rng(404);
  Tensor emissions = Tensor::FromData(Shape{lanes, max_len, num_tags},
                                      RaggedCrfBatch(&crf, lengths, max_len, &rng));

  for (int64_t lane = 0; lane < lanes; ++lane) {
    const int64_t length = lengths[static_cast<size_t>(lane)];
    std::vector<int64_t> tags(static_cast<size_t>(lanes * max_len), 0);
    int64_t* path = tags.data() + lane * max_len;
    double total = 0.0;
    for (;;) {
      Tensor nll = crf.NegLogLikelihoodBatch(emissions, tags, lengths);
      total += std::exp(-nll.at(lane));
      int64_t pos = length - 1;
      while (pos >= 0) {
        if (++path[pos] < num_tags) break;
        path[pos] = 0;
        --pos;
      }
      if (pos < 0) break;
    }
    EXPECT_NEAR(total, 1.0, 1e-3) << "lane " << lane << " (length " << length << ")";
  }
}

TEST(CrfRaggedBatchProperty, ViterbiPerLaneMatchesBruteForceIgnoringPadding) {
  // One [3, 3, Y] batch with lane lengths 3, 1 and 2, junk emissions in the
  // padded slots and tag 1 masked invalid.  Each lane's decoded path must be
  // the enumeration argmax over the valid paths of that lane's own rows.
  const int64_t num_tags = 4;
  const std::vector<int64_t> lengths = {3, 1, 2};
  const int64_t lanes = 3, max_len = 3;
  const std::vector<bool> valid = {true, false, true, true};
  crf::LinearChainCrf crf(num_tags);
  util::Rng rng(505);
  const std::vector<float> emit = RaggedCrfBatch(&crf, lengths, max_len, &rng);
  Tensor emissions = Tensor::FromData(Shape{lanes, max_len, num_tags}, emit);
  const auto decoded = crf.ViterbiBatch(emissions, lengths, &valid);
  ASSERT_EQ(static_cast<int64_t>(decoded.size()), lanes);

  const auto params = crf.Parameters();  // transitions, start, end
  const auto& trans = params[0]->data();
  const auto& start = params[1]->data();
  const auto& end = params[2]->data();
  for (int64_t lane = 0; lane < lanes; ++lane) {
    const int64_t length = lengths[static_cast<size_t>(lane)];
    const float* rows = emit.data() + lane * max_len * num_tags;
    std::vector<int64_t> path(static_cast<size_t>(length), 0);
    std::vector<int64_t> best_path;
    double best = -1e300, runner_up = -1e300;
    for (;;) {
      bool ok = true;
      for (int64_t tag : path) ok = ok && valid[static_cast<size_t>(tag)];
      if (ok) {
        double score = static_cast<double>(start[static_cast<size_t>(path.front())]) +
                       end[static_cast<size_t>(path.back())];
        for (int64_t t = 0; t < length; ++t) {
          score += rows[t * num_tags + path[static_cast<size_t>(t)]];
          if (t > 0) {
            score += trans[static_cast<size_t>(path[static_cast<size_t>(t - 1)] *
                                                   num_tags +
                                               path[static_cast<size_t>(t)])];
          }
        }
        if (score > best) {
          runner_up = best;
          best = score;
          best_path = path;
        } else if (score > runner_up) {
          runner_up = score;
        }
      }
      int64_t pos = length - 1;
      while (pos >= 0) {
        if (++path[static_cast<size_t>(pos)] < num_tags) break;
        path[static_cast<size_t>(pos)] = 0;
        --pos;
      }
      if (pos < 0) break;
    }
    // A clear winner, so float-vs-double rounding cannot flip the argmax.
    ASSERT_GT(best - runner_up, 1e-3) << "lane " << lane;
    EXPECT_EQ(decoded[static_cast<size_t>(lane)], best_path)
        << "lane " << lane << " (length " << length << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CrfProperty,
                         ::testing::Values(CrfCase{2, 1}, CrfCase{2, 5},
                                           CrfCase{3, 3}, CrfCase{3, 5},
                                           CrfCase{5, 3}, CrfCase{7, 2},
                                           CrfCase{11, 6}));

// ---------------------------------------------------------------- BIO scheme

class BioProperty : public ::testing::TestWithParam<int> {};

TEST_P(BioProperty, SpansToTagsToSpansIsIdentityOnWellFormed) {
  // Random non-overlapping spans survive the round trip exactly.
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const int64_t length = 6 + static_cast<int64_t>(rng.UniformInt(10));
  std::vector<text::Span> spans;
  std::vector<int64_t> slots;
  int64_t cursor = 0;
  while (cursor < length) {
    if (rng.Bernoulli(0.4)) {
      const int64_t width =
          1 + static_cast<int64_t>(rng.UniformInt(3));
      const int64_t end = std::min(length, cursor + width);
      const int64_t slot = static_cast<int64_t>(rng.UniformInt(4));
      spans.push_back(text::Span{cursor, end, std::to_string(slot)});
      slots.push_back(slot);
      cursor = end + 1;  // gap so adjacent spans stay distinguishable
    } else {
      ++cursor;
    }
  }
  auto tags = text::SpansToTags(spans, slots, length);
  auto recovered = text::TagsToSpans(tags);
  ASSERT_EQ(recovered.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(recovered[i].start, spans[i].start);
    EXPECT_EQ(recovered[i].end, spans[i].end);
    EXPECT_EQ(recovered[i].label, std::to_string(slots[i]));
  }
}

TEST_P(BioProperty, TagsToSpansProducesSortedDisjointSpans) {
  // ANY tag sequence (even ill-formed) yields sorted, non-overlapping spans.
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  const int64_t length = 4 + static_cast<int64_t>(rng.UniformInt(12));
  std::vector<int64_t> tags(static_cast<size_t>(length));
  for (auto& tag : tags) {
    tag = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(text::NumTags(3))));
  }
  auto spans = text::TagsToSpans(tags);
  int64_t previous_end = 0;
  for (const auto& span : spans) {
    EXPECT_GE(span.start, previous_end);
    EXPECT_LT(span.start, span.end);
    EXPECT_LE(span.end, length);
    previous_end = span.end;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BioProperty, ::testing::Range(0, 12));

// ---------------------------------------------------------------- sampler grid

struct SamplerCase {
  int64_t n_way;
  int64_t k_shot;
};

class SamplerProperty : public ::testing::TestWithParam<SamplerCase> {
 protected:
  static const data::Corpus& Corpus() {
    static const data::Corpus corpus = [] {
      data::SyntheticSpec spec;
      spec.name = "prop";
      spec.genre = "various";
      spec.num_types = 10;
      spec.num_sentences = 600;
      spec.mentions_per_sentence = 2.5;
      spec.seed = 31;
      spec.type_pool_offset = 7800;
      return data::GenerateCorpus(spec);
    }();
    return corpus;
  }
};

TEST_P(SamplerProperty, EveryEpisodeSatisfiesNWayKShot) {
  const auto& param = GetParam();
  data::EpisodeSampler sampler(&Corpus(), Corpus().entity_types, param.n_way,
                               param.k_shot, 4, 123);
  for (uint64_t id = 0; id < 5; ++id) {
    data::Episode episode = sampler.Sample(id);
    EXPECT_EQ(episode.n_way(), param.n_way);
    std::map<std::string, int64_t> counts;
    for (const data::Sentence* sentence : episode.support) {
      for (const auto& entity : sentence->entities) counts[entity.label] += 1;
    }
    for (const auto& way : episode.types) {
      EXPECT_GE(counts[way], param.k_shot);
    }
    // Minimality: some way must drop below K when any sentence is removed.
    for (size_t drop = 0; drop < episode.support.size(); ++drop) {
      std::map<std::string, int64_t> without;
      for (size_t i = 0; i < episode.support.size(); ++i) {
        if (i == drop) continue;
        for (const auto& entity : episode.support[i]->entities) {
          without[entity.label] += 1;
        }
      }
      bool below = false;
      for (const auto& way : episode.types) {
        below = below || without[way] < param.k_shot;
      }
      EXPECT_TRUE(below);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SamplerProperty,
                         ::testing::Values(SamplerCase{2, 1}, SamplerCase{3, 1},
                                           SamplerCase{5, 1}, SamplerCase{5, 2},
                                           SamplerCase{3, 5}, SamplerCase{5, 5},
                                           SamplerCase{7, 1}, SamplerCase{10, 1}));

}  // namespace
}  // namespace fewner
