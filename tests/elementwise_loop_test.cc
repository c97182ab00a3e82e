// 0-ULP differential of the elementwise and broadcast loops in tensor/ops.cc
// against a naive per-element reference.
//
// The reference walks every output element on its own: it maps the element's
// coordinates to each operand by right-aligned broadcasting (div/mod, size-1
// dims pinned to 0) and applies the scalar operation once.  SumTo's reference
// adds each input element onto its output, +0-initialised, in ascending flat
// order — what the BroadcastIndexer odometer does.  The op results must match
// it to the last bit (memcmp) on every layout the ops handle — same shape,
// the trailing layouts ([r, c] ⊕ [c], [r, c] ⊕ [1, c] and their mirrors,
// rank 3), the per-row scalar ([B, Y, 1] against [B, Y, Y]), the middle
// broadcast ([B, 1, Y] against [B, Y, Y], and the CRF's [B, 1, Y] ⊕ [Y, Y],
// where both operands broadcast), a layout left on the odometer
// ([1, Y, 1] against [B, Y, Y]) and zero-numel operands — over values that
// include ±0, ±inf and NaN, in graph mode and in eval mode.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace fewner::tensor {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNan = std::numeric_limits<float>::quiet_NaN();

/// `shape`-sized values: every third element is the next of `specials`, the
/// rest are Gaussian draws, so specials meet finite values and each other.
Tensor Values(const Shape& shape, const std::vector<float>& specials, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(shape.numel()));
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 3 == 0 ? specials[(i / 3 + seed) % specials.size()]
                      : static_cast<float>(rng.Gaussian(0.0, 2.0));
  }
  return Tensor::FromData(shape, std::move(v));
}

const std::vector<float> kSpecials = {0.0f, -0.0f, kInf, -kInf, kNan, 1.0f, -1.0f};

/// Right-aligned broadcast of two shapes (the operands below are compatible).
Shape BroadcastShape(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t ai = i - (rank - a.rank());
    const int64_t bi = i - (rank - b.rank());
    const int64_t da = ai >= 0 ? a.dim(ai) : 1;
    const int64_t db = bi >= 0 ? b.dim(bi) : 1;
    dims[static_cast<size_t>(i)] = da == 1 ? db : da;
  }
  return Shape{std::move(dims)};
}

/// Flat index into `in` of the element of `out` at flat index `flat`.
int64_t SourceIndex(const Shape& in, const Shape& out, int64_t flat) {
  int64_t index = 0;
  int64_t stride = 1;
  for (int64_t i = out.rank() - 1; i >= 0; --i) {
    const int64_t coord = flat % out.dim(i);
    flat /= out.dim(i);
    const int64_t ii = i - (out.rank() - in.rank());
    if (ii < 0) continue;
    if (in.dim(ii) != 1) index += coord * stride;
    stride *= in.dim(ii);
  }
  return index;
}

template <typename F>
std::vector<float> NaiveBinary(const Tensor& a, const Tensor& b, const Shape& out, F f) {
  std::vector<float> r(static_cast<size_t>(out.numel()));
  for (int64_t i = 0; i < out.numel(); ++i) {
    r[static_cast<size_t>(i)] = f(a.at(SourceIndex(a.shape(), out, i)),
                                  b.at(SourceIndex(b.shape(), out, i)));
  }
  return r;
}

void ExpectBits(const Tensor& got, const Shape& shape, const std::vector<float>& want,
                const std::string& what) {
  ASSERT_EQ(got.shape().ToString(), shape.ToString()) << what;
  ASSERT_EQ(got.data().size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.data()[i], &want[i], sizeof(float)), 0)
        << what << " elem " << i << ": " << got.data()[i] << " vs " << want[i];
  }
}

/// Runs `body` in graph mode and under EvalMode.
template <typename Body>
void InBothModes(Body body) {
  body("graph");
  EvalMode eval;
  body("eval");
}

struct ShapePair {
  const char* name;
  Shape a, b;
};

const ShapePair kBinaryShapes[] = {
    {"same", Shape{3, 5}, Shape{3, 5}},
    {"[r,c]+[c]", Shape{4, 7}, Shape{7}},
    {"[r,c]+[1,c]", Shape{4, 7}, Shape{1, 7}},
    {"[1,c]+[r,c]", Shape{1, 7}, Shape{4, 7}},
    {"[c]+[r,c]", Shape{7}, Shape{4, 7}},
    {"rank-3 trailing", Shape{2, 3, 5}, Shape{3, 5}},
    {"rank-3 [1,1,c]", Shape{2, 3, 5}, Shape{1, 1, 5}},
    {"scalar", Shape{3, 5}, Shape{}},
    {"[B,1,Y]+[Y,Y]", Shape{2, 1, 4}, Shape{4, 4}},
    {"[1,1,Y]+[Y,Y]", Shape{1, 1, 4}, Shape{4, 4}},  // result [1, Y, Y]
    {"[r,1]+[r,c]", Shape{4, 1}, Shape{4, 7}},
    {"[B,Y,Y]+[B,Y,1]", Shape{2, 3, 4}, Shape{2, 3, 1}},
    {"[B,1,Y]+[B,Y,Y]", Shape{2, 1, 4}, Shape{2, 3, 4}},
    {"rank-4 [B,1,1,D]", Shape{2, 3, 4, 5}, Shape{2, 1, 1, 5}},
    {"[1,Y,1]+[B,Y,Y] odometer", Shape{1, 3, 1}, Shape{2, 3, 4}},
    {"zero rows", Shape{0, 5}, Shape{5}},
    {"zero cols", Shape{3, 0}, Shape{0}},
    {"zero small", Shape{1, 0}, Shape{3, 0}},
    {"zero both", Shape{0}, Shape{0}},
};

TEST(ElementwiseLoopTest, BinaryOpsMatchPerElementReferenceBitwise) {
  struct Op {
    const char* name;
    Tensor (*op)(const Tensor&, const Tensor&);
    float (*ref)(float, float);
  };
  const Op ops[] = {
      {"Add", &Add, [](float x, float y) { return x + y; }},
      {"Sub", &Sub, [](float x, float y) { return x - y; }},
      {"Mul", &Mul, [](float x, float y) { return x * y; }},
      {"Div", &Div, [](float x, float y) { return x / y; }},
  };
  InBothModes([&](const char* mode) {
    for (const ShapePair& s : kBinaryShapes) {
      const Tensor a = Values(s.a, kSpecials, 1);
      const Tensor b = Values(s.b, kSpecials, 2);
      const Shape out = BroadcastShape(s.a, s.b);
      for (const Op& op : ops) {
        ExpectBits(op.op(a, b), out, NaiveBinary(a, b, out, op.ref),
                   std::string(mode) + " " + op.name + " " + s.name);
      }
    }
  });
}

TEST(ElementwiseLoopTest, UnaryOpsMatchPerElementReferenceBitwise) {
  struct Op {
    const char* name;
    Tensor (*op)(const Tensor&);
    float (*ref)(float);
  };
  const Op ops[] = {
      {"Neg", &Neg, [](float x) { return -x; }},
      {"Sigmoid", &Sigmoid, [](float x) { return 1.0f / (1.0f + std::exp(-x)); }},
      {"Tanh", &Tanh, [](float x) { return std::tanh(x); }},
      {"Relu", &Relu, [](float x) { return x > 0.0f ? x : 0.0f; }},
      {"Exp", &Exp, [](float x) { return std::exp(x); }},
      {"Log", &Log, [](float x) { return std::log(x); }},
      {"Sqrt", &Sqrt, [](float x) { return std::sqrt(x); }},
      {"Square", &Square, [](float x) { return x * x; }},
      {"AddScalar", [](const Tensor& t) { return AddScalar(t, 0.75f); },
       [](float x) { return x + 0.75f; }},
      {"MulScalar", [](const Tensor& t) { return MulScalar(t, -1.5f); },
       [](float x) { return x * -1.5f; }},
  };
  InBothModes([&](const char* mode) {
    for (const Shape& shape : {Shape{37}, Shape{3, 5}, Shape{2, 3, 5}, Shape{0, 4}}) {
      const Tensor t = Values(shape, kSpecials, 3);
      for (const Op& op : ops) {
        std::vector<float> want(t.data().size());
        for (size_t i = 0; i < want.size(); ++i) want[i] = op.ref(t.data()[i]);
        ExpectBits(op.op(t), shape, want,
                   std::string(mode) + " " + op.name + " " + shape.ToString());
      }
    }
  });
}

struct Reduction {
  const char* name;
  Shape big, small;
};

const Reduction kReductions[] = {
    {"[r,c]->[c]", Shape{4, 7}, Shape{7}},
    {"[r,c]->[1,c]", Shape{4, 7}, Shape{1, 7}},
    {"rank-3 ->[c]", Shape{2, 3, 5}, Shape{5}},
    {"rank-3 ->[1,1,c]", Shape{2, 3, 5}, Shape{1, 1, 5}},
    {"rank-3 ->[r,c]", Shape{2, 3, 5}, Shape{3, 5}},
    {"->scalar", Shape{3, 5}, Shape{}},
    {"rank-3 ->[B,1,c]", Shape{2, 3, 5}, Shape{2, 1, 5}},
    {"[r,c]->[r,1]", Shape{4, 7}, Shape{4, 1}},
    {"[B,Y,Y]->[B,Y,1]", Shape{2, 3, 4}, Shape{2, 3, 1}},
    {"rank-4 ->[B,1,1,D]", Shape{2, 3, 4, 5}, Shape{2, 1, 1, 5}},
    {"[B,Y,Y]->[1,Y,1] odometer", Shape{2, 3, 4}, Shape{1, 3, 1}},
    {"zero rows", Shape{0, 5}, Shape{5}},
    {"zero cols", Shape{3, 0}, Shape{0}},
    {"zero rows ->[1,c]", Shape{0, 5}, Shape{1, 5}},
};

TEST(ElementwiseLoopTest, SumToMatchesAscendingPerElementReferenceBitwise) {
  // Two value sets, so every output's NaN has one possible payload whatever
  // the operand order of its additions: ±inf (whose cancellation makes the
  // default NaN) without NaN inputs, and NaN inputs without -inf.
  const std::vector<std::vector<float>> value_sets = {
      {0.0f, -0.0f, kInf, -kInf, 1.0f, -1.0f}, {0.0f, -0.0f, kInf, kNan, -1.0f}};
  InBothModes([&](const char* mode) {
    for (const Reduction& r : kReductions) {
      for (const std::vector<float>& specials : value_sets) {
        const Tensor t = Values(r.big, specials, 4);
        std::vector<float> want(static_cast<size_t>(r.small.numel()), 0.0f);
        for (int64_t i = 0; i < t.numel(); ++i) {
          want[static_cast<size_t>(SourceIndex(r.small, r.big, i))] += t.at(i);
        }
        ExpectBits(SumTo(t, r.small), r.small, want, std::string(mode) + " " + r.name);
      }
    }
  });
}

TEST(ElementwiseLoopTest, BroadcastToMatchesPerElementReferenceBitwise) {
  InBothModes([&](const char* mode) {
    for (const Reduction& r : kReductions) {
      const Tensor t = Values(r.small, kSpecials, 5);
      std::vector<float> want(static_cast<size_t>(r.big.numel()));
      for (int64_t i = 0; i < r.big.numel(); ++i) {
        want[static_cast<size_t>(i)] = t.at(SourceIndex(r.small, r.big, i));
      }
      ExpectBits(BroadcastTo(t, r.big), r.big, want, std::string(mode) + " " + r.name);
    }
  });
}

TEST(ElementwiseLoopTest, WhereMatchesPerElementReferenceBitwise) {
  // cond is 0, 1, -0 or NaN (nonzero, so it takes a); the branches carry
  // specials, which Where copies bit for bit.
  const ShapePair cases[] = {
      {"same", Shape{3, 5}, Shape{3, 5}},
      {"[r,1] lane mask", Shape{4, 1}, Shape{4, 7}},
      {"[c] trailing", Shape{7}, Shape{4, 7}},
      {"[B,1,Y] middle", Shape{2, 1, 4}, Shape{2, 3, 4}},
      {"[1,Y,1] odometer", Shape{1, 3, 1}, Shape{2, 3, 4}},
      {"zero rows", Shape{0, 1}, Shape{0, 5}},
  };
  InBothModes([&](const char* mode) {
    for (const ShapePair& c : cases) {
      const Tensor cond = Values(c.a, {0.0f, 1.0f, -0.0f, kNan}, 6);
      const Tensor x = Values(c.b, kSpecials, 7);
      const Tensor y = Values(c.b, kSpecials, 8);
      std::vector<float> want(static_cast<size_t>(c.b.numel()));
      for (int64_t i = 0; i < c.b.numel(); ++i) {
        want[static_cast<size_t>(i)] =
            cond.at(SourceIndex(c.a, c.b, i)) != 0.0f ? x.at(i) : y.at(i);
      }
      ExpectBits(Where(cond, x, y), c.b, want, std::string(mode) + " " + c.name);
    }
  });
}

}  // namespace
}  // namespace fewner::tensor
