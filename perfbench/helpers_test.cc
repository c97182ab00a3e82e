// Unit tests for the benchmark's own helpers: the tail-percentile rule, the
// best-of-rounds op log, span self-time arithmetic and workload-generator
// determinism.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "harness.h"
#include "inputs.h"
#include "stats.h"
#include "text/bio.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: TailOf must sort
  return v;
}

TEST(TailTest, HundredSamplesGiveP90WithTenBeyond) {
  const Tail tail = TailOf(Iota(100));
  EXPECT_EQ(tail.samples, 100);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);  // 91..100 lie beyond it
}

TEST(TailTest, PercentileRisesWithSampleCount) {
  const Tail tail = TailOf(Iota(1000));
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
}

TEST(TailTest, ElevenSamplesIsTheSmallestWithATail) {
  const Tail tail = TailOf(Iota(11));
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_DOUBLE_EQ(tail.value, 1.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 100.0 / 11.0);
}

TEST(TailTest, TooFewSamplesReportTheMaximumWithNothingBeyond) {
  const Tail tail = TailOf(Iota(10));
  EXPECT_EQ(tail.samples, 10);
  EXPECT_EQ(tail.beyond, 0);
  EXPECT_DOUBLE_EQ(tail.percentile, 100.0);
  EXPECT_DOUBLE_EQ(tail.value, 10.0);
  EXPECT_EQ(TailOf({}).samples, 0);
}

TEST(TailTest, MinBeyondIsRespected) {
  const Tail tail = TailOf(Iota(40), 4);
  EXPECT_EQ(tail.beyond, 4);
  EXPECT_DOUBLE_EQ(tail.value, 36.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(OpLogTest, EachInputKeepsItsFastestAttempt) {
  OpLog log;
  log.Record(0, 30.0, 1);
  log.Record(1, 10.0, 2);
  log.Record(0, 20.0, 1);  // second round
  log.Record(1, 40.0, 2);
  EXPECT_EQ(log.ms, (std::vector<double>{20.0, 10.0}));
  EXPECT_EQ(log.attempts, 4);
  EXPECT_EQ(log.TotalItems(), 3);
  EXPECT_DOUBLE_EQ(log.ItemsPerSecond(), 3 * 1000.0 / 30.0);
  log.Record(1, 5.0, -1);  // a failed attempt: the input's work no longer counts
  EXPECT_EQ(log.items[1], 0);
}

TEST(OpLogTest, EveryOtherSplitsInterleavedInputs) {
  OpLog log;
  for (int i = 0; i < 6; ++i) log.Record(static_cast<size_t>(i), i, 1);
  EXPECT_EQ(EveryOther(log, 0).ms, (std::vector<double>{0, 2, 4}));
  EXPECT_EQ(EveryOther(log, 1).ms, (std::vector<double>{1, 3, 5}));
}

TEST(RoundRobinTest, FirstRoundCompletesEvenPastTheDeadline) {
  Result result;
  std::vector<int> served;
  const std::vector<int> inputs = {7, 8, 9};
  const OpLog log = RoundRobin(
      1e-9, inputs,
      [&](int input) {
        served.push_back(input);
        return std::vector<std::vector<int64_t>>{};
      },
      [](int, const std::vector<std::vector<int64_t>>&) -> int64_t { return 1; },
      &result);
  EXPECT_EQ(served, inputs);
  EXPECT_EQ(log.rounds, 1);
  EXPECT_EQ(log.ms.size(), 3u);
  EXPECT_EQ(result.attempted, 3);
  EXPECT_EQ(log.rss_attempts, 3);  // sampled at the run's end, before round 2
}

Span MakeSpan(int64_t id, int64_t parent, double start, double end,
              Layer layer = Layer::kOp) {
  Span s;
  s.layer = layer;
  s.id = id;
  s.parent = parent;
  s.start_ms = start;
  s.end_ms = end;
  return s;
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  // Root [0, 10] with children [1, 4] and [3, 6] (overlapping, as parallel
  // workers are) and [8, 12] (outliving the root: only [8, 10] counts).
  // A grandchild under the first child never reduces the root's self time.
  const std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 1, 4), MakeSpan(2, 0, 3, 6),
      MakeSpan(3, 0, 8, 12),  MakeSpan(4, 1, 1.5, 2.5),
  };
  const std::vector<double> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTimeTest, DisjointChildrenSumAndLeavesKeepTheirDuration) {
  const std::vector<Span> spans = {MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 0, 2),
                                   MakeSpan(2, 0, 5, 7), MakeSpan(3, -1, 20, 21)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SummarizeTest, PerLayerCallsMedianAndSelf) {
  const std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 10),
      MakeSpan(1, 0, 0, 1, Layer::kModelsPrefix),
      MakeSpan(2, 0, 2, 5, Layer::kModelsPrefix),
      MakeSpan(3, 0, 6, 8, Layer::kModelsPrefix),
      MakeSpan(4, 3, 6, 7, Layer::kCrfViterbi),
  };
  const std::vector<LayerSummary> layers = Summarize(spans);
  const LayerSummary& prefix = layers[static_cast<size_t>(Layer::kModelsPrefix)];
  EXPECT_EQ(prefix.calls, 3);
  EXPECT_DOUBLE_EQ(prefix.median_ms, 2.0);
  EXPECT_DOUBLE_EQ(prefix.total_ms, 6.0);
  EXPECT_DOUBLE_EQ(prefix.self_ms, 5.0);
  EXPECT_DOUBLE_EQ(layers[static_cast<size_t>(Layer::kOp)].self_ms, 4.0);
  EXPECT_EQ(layers[static_cast<size_t>(Layer::kMetaRun)].calls, 0);
}

TEST(TracerTest, ScopesNestPerThreadAndNameExplicitParents) {
  Tracer tracer;
  for (int i = 0; i < 8; ++i) tracer.BeginOp();
  int64_t run_id = -1;
  {
    Scope op(&tracer, Layer::kOp);
    Scope run(&tracer, Layer::kMetaRun);
    run_id = run.id();
    std::thread worker([&] {
      Scope task(&tracer, Layer::kMetaTask, run_id);
      Scope sample(&tracer, Layer::kDataSample);
    });
    worker.join();
  }
  Scope after(&tracer, Layer::kOp);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].layer, Layer::kMetaTask);
  EXPECT_EQ(spans[2].parent, run_id);
  EXPECT_EQ(spans[3].parent, spans[2].id);
  EXPECT_EQ(spans[4].parent, -1);  // the enclosing scopes closed
  for (const Span& s : spans) EXPECT_EQ(s.op, 7);
  for (int i = 0; i < 4; ++i) EXPECT_LE(spans[i].start_ms, spans[i].end_ms);
}

// --- workload-generator determinism ---------------------------------------

bool SameSentences(const std::vector<models::EncodedSentence>& a,
                   const std::vector<models::EncodedSentence>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].word_ids != b[i].word_ids || a[i].char_ids != b[i].char_ids ||
        a[i].tags != b[i].tags) {
      return false;
    }
  }
  return true;
}

bool SameEpisode(const models::EncodedEpisode& a, const models::EncodedEpisode& b) {
  return SameSentences(a.support, b.support) && SameSentences(a.query, b.query) &&
         a.valid_tags == b.valid_tags;
}

class TaskStreamTest : public ::testing::Test {
 protected:
  TaskStreamTest()
      : world_(BuildWorld()),
        encoder_(&world_.words, &world_.chars, text::NumTags(kNWay)) {}

  World world_;
  models::EpisodeEncoder encoder_;
};

TEST_F(TaskStreamTest, SameSeedGivesIdenticalTasks) {
  const TaskStream a(&world_, &encoder_, 11);
  const TaskStream b(&world_, &encoder_, 11);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.Shots(i), b.Shots(i));
    EXPECT_TRUE(SameEpisode(a.Task(i), b.Task(i))) << "task " << i;
  }
}

TEST_F(TaskStreamTest, DifferentSeedGivesDifferentTasks) {
  const TaskStream a(&world_, &encoder_, 11);
  const TaskStream b(&world_, &encoder_, 12);
  int differing = 0;
  for (int64_t i = 0; i < 6; ++i) differing += SameEpisode(a.Task(i), b.Task(i)) ? 0 : 1;
  EXPECT_GT(differing, 0);
}

TEST_F(TaskStreamTest, EveryGroupOfThreeHoldsOneFiveShotTask) {
  int five_shot_first = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskStream stream(&world_, &encoder_, seed);
    for (int64_t group = 0; group < 4; ++group) {
      int fives = 0;
      for (int64_t i = 3 * group; i < 3 * group + 3; ++i) {
        EXPECT_TRUE(stream.Shots(i) == 1 || stream.Shots(i) == 5);
        fives += stream.Shots(i) == 5 ? 1 : 0;
      }
      EXPECT_EQ(fives, 1);
    }
    five_shot_first += stream.Shots(0) == 5 ? 1 : 0;
    const models::EncodedEpisode task = stream.Task(0);
    EXPECT_EQ(static_cast<int64_t>(task.query.size()), kQuerySize);
  }
  EXPECT_GT(five_shot_first, 0);  // the order within a group is seeded
  EXPECT_LT(five_shot_first, 8);
}

std::vector<Request> Draw(RequestStream* stream, int n) {
  std::vector<Request> out;
  for (int i = 0; i < n; ++i) out.push_back(stream->Next());
  return out;
}

TEST(RequestStreamTest, SameSeedGivesIdenticalRequests) {
  RequestStream a(1000, 16, 5);
  RequestStream b(1000, 16, 5);
  EXPECT_EQ(Draw(&a, 100), Draw(&b, 100));
}

TEST(RequestStreamTest, DifferentSeedGivesDifferentRequests) {
  RequestStream a(1000, 16, 5);
  RequestStream b(1000, 16, 6);
  EXPECT_NE(Draw(&a, 100), Draw(&b, 100));
}

TEST(RequestStreamTest, EveryDeckCarriesTheSameSizeMixAndSentencesArriveInOrder) {
  RequestStream stream(50, 4, 9);
  const std::vector<int64_t> deck = RequestStream::BatchDeck();
  std::vector<int64_t> sorted_deck = deck;
  std::sort(sorted_deck.begin(), sorted_deck.end());
  // Uniform over 1..32: every size exactly once.
  ASSERT_EQ(sorted_deck.size(), 32u);
  for (size_t i = 0; i < sorted_deck.size(); ++i) {
    EXPECT_EQ(sorted_deck[i], static_cast<int64_t>(i) + 1);
  }
  std::vector<int64_t> arrivals;
  for (int d = 0; d < 3; ++d) {
    std::vector<int64_t> sizes;
    for (size_t i = 0; i < deck.size(); ++i) {
      const Request r = stream.Next();
      EXPECT_GE(r.tenant, 0);
      EXPECT_LT(r.tenant, 4);
      sizes.push_back(static_cast<int64_t>(r.sentences.size()));
      arrivals.insert(arrivals.end(), r.sentences.begin(), r.sentences.end());
    }
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, sorted_deck);
  }
  // The pool is consumed as one fixed permutation, wrapping around.
  for (size_t i = 50; i < arrivals.size(); ++i) EXPECT_EQ(arrivals[i], arrivals[i - 50]);
  std::vector<int64_t> first(arrivals.begin(), arrivals.begin() + 50);
  std::sort(first.begin(), first.end());
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(first[static_cast<size_t>(i)], i);
}

TEST(SeedDerivationTest, DerivedSeedsDependOnTheWorkloadSeed) {
  EXPECT_EQ(MetaTrainSamplerSeed(3), MetaTrainSamplerSeed(3));
  EXPECT_NE(MetaTrainSamplerSeed(3), MetaTrainSamplerSeed(4));
  EXPECT_NE(TenantSeed(3), TenantSeed(4));
  EXPECT_NE(TenantSeed(3), MetaTrainSamplerSeed(3));
}

}  // namespace
}  // namespace perfbench
