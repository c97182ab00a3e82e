// Tests for the util subsystem: Status/Result, Rng determinism and statistics,
// flags, string helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace fewner::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 1000 draws
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(42);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) count1 += (rng.Categorical(weights) == 1);
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.03);
}

TEST(RngTest, ForkIsIndependentOfDrawPosition) {
  Rng a(9);
  Rng fork_before = a.Fork(3);
  a.Next();
  a.Next();
  Rng fork_after = a.Fork(3);
  EXPECT_EQ(fork_before.Next(), fork_after.Next());
}

TEST(RngTest, ForkStreamsDiffer) {
  Rng a(9);
  EXPECT_NE(a.Fork(1).Next(), a.Fork(2).Next());
}

TEST(RngTest, ForkSameStreamIdIsDeterministic) {
  // (seed, stream_id) fully determines a forked stream — the property the
  // episode-parallel trainer leans on to key per-task randomness by episode id.
  Rng a(123), b(123);
  for (uint64_t stream = 0; stream < 16; ++stream) {
    Rng fork_a = a.Fork(stream);
    Rng fork_b = b.Fork(stream);
    for (int draw = 0; draw < 8; ++draw) EXPECT_EQ(fork_a.Next(), fork_b.Next());
  }
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng forked(77);
  Rng untouched(77);
  for (uint64_t stream = 0; stream < 8; ++stream) forked.Fork(stream);
  for (int draw = 0; draw < 16; ++draw) {
    EXPECT_EQ(forked.Next(), untouched.Next());
  }
}

TEST(RngTest, PreForkedStreamsReproduceSerialDrawSequence) {
  // Serial reference: fork per-episode streams lazily, in episode order, and
  // drain each in turn.
  Rng serial_parent(42);
  std::vector<uint64_t> serial;
  for (uint64_t episode = 0; episode < 8; ++episode) {
    Rng stream = serial_parent.Fork(episode);
    for (int draw = 0; draw < 4; ++draw) serial.push_back(stream.Next());
  }

  // Parallel pattern: pre-fork every stream up front, then consume them in a
  // scrambled worker-completion order.  The per-episode draws must be the
  // same as the serial pass — forked streams are pure functions of the id.
  Rng parallel_parent(42);
  std::vector<Rng> streams;
  for (uint64_t episode = 0; episode < 8; ++episode) {
    streams.push_back(parallel_parent.Fork(episode));
  }
  const size_t worker_order[] = {5, 0, 7, 2, 6, 1, 4, 3};
  std::vector<std::vector<uint64_t>> draws(8);
  for (size_t episode : worker_order) {
    for (int draw = 0; draw < 4; ++draw) {
      draws[episode].push_back(streams[episode].Next());
    }
  }
  std::vector<uint64_t> parallel;
  for (const auto& episode_draws : draws) {
    parallel.insert(parallel.end(), episode_draws.begin(), episode_draws.end());
  }
  EXPECT_EQ(serial, parallel);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(HashStringTest, StableAndDistinct) {
  EXPECT_EQ(HashString("protein"), HashString("protein"));
  EXPECT_NE(HashString("protein"), HashString("proteins"));
  EXPECT_NE(HashString(""), HashString(" "));
}

TEST(FlagsTest, DefaultsAndOverrides) {
  FlagParser parser;
  parser.AddInt("episodes", 100, "number of eval episodes");
  parser.AddDouble("lr", 0.1, "inner learning rate");
  parser.AddString("dataset", "nne", "dataset name");
  parser.AddBool("verbose", false, "verbose logging");

  const char* argv[] = {"prog", "--episodes", "250", "--lr=0.05", "--verbose"};
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_EQ(parser.GetInt("episodes"), 250);
  EXPECT_DOUBLE_EQ(parser.GetDouble("lr"), 0.05);
  EXPECT_EQ(parser.GetString("dataset"), "nne");
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagsTest, UnknownFlagIsError) {
  FlagParser parser;
  parser.AddInt("episodes", 100, "n");
  const char* argv[] = {"prog", "--episode", "250"};
  EXPECT_FALSE(parser.Parse(3, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, BadIntIsError) {
  FlagParser parser;
  parser.AddInt("episodes", 100, "n");
  const char* argv[] = {"prog", "--episodes", "many"};
  EXPECT_FALSE(parser.Parse(3, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, OutOfRangeAndNonFiniteNumbersAreErrors) {
  // strtoll/strtod saturate out-of-range input and accept nan/inf; each of
  // these must fail at parsing, naming the flag, not run with a clamped or
  // non-finite value.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"episodes", "99999999999999999999"},
      {"episodes", "-99999999999999999999"},
      {"lr", "1e999"},
      {"lr", "-1e999"},
      {"lr", "nan"},
      {"lr", "inf"},
      {"lr", "-inf"},
  };
  for (const auto& [name, value] : bad) {
    FlagParser parser;
    parser.AddInt("episodes", 100, "n");
    parser.AddDouble("lr", 0.1, "lr");
    const std::string flag = "--" + name;
    const char* argv[] = {"prog", flag.c_str(), value.c_str()};
    const Status status = parser.Parse(3, const_cast<char**>(argv));
    EXPECT_FALSE(status.ok()) << flag << " " << value;
    EXPECT_NE(status.ToString().find("flag --" + name + " expects"), std::string::npos)
        << status.ToString();
  }
  // The extremes that do fit still parse.
  FlagParser parser;
  parser.AddInt("episodes", 100, "n");
  parser.AddDouble("lr", 0.1, "lr");
  const char* argv[] = {"prog", "--episodes", "9223372036854775807", "--lr", "1e308"};
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_EQ(parser.GetInt("episodes"), INT64_MAX);
  EXPECT_DOUBLE_EQ(parser.GetDouble("lr"), 1e308);
}

TEST(StringUtilTest, SplitSkipsEmpty) {
  auto parts = Split("a  b c ", ' ');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(StringUtilTest, FormatAndPad) {
  EXPECT_EQ(FormatDouble(23.745, 2), "23.75");  // rounds half up at this value
  EXPECT_EQ(Pad("ab", 5, true), "   ab");
  EXPECT_EQ(Pad("ab", 5, false), "ab   ");
  EXPECT_EQ(Pad("abcdef", 3, true), "abcdef");
}

}  // namespace
}  // namespace fewner::util
