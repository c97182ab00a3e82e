// Tests for the evaluation layer: statistics, reporting, episode F1, scenario
// construction, and an end-to-end (tiny) experiment run.

#include <gtest/gtest.h>

#include <cmath>

#include "data/datasets.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/reporting.h"
#include "eval/statistics.h"
#include "text/bio.h"

namespace fewner::eval {
namespace {

TEST(StatisticsTest, SummarizeMatchesHand) {
  ScoreSummary s = Summarize({0.2, 0.4, 0.6});
  EXPECT_NEAR(s.mean, 0.4, 1e-9);
  EXPECT_NEAR(s.stddev, std::sqrt(0.08 / 3), 1e-9);
  EXPECT_NEAR(s.ci95, 1.96 * s.stddev / std::sqrt(3.0), 1e-9);
  EXPECT_EQ(s.count, 3);
}

TEST(StatisticsTest, EmptyAndSingleton) {
  EXPECT_EQ(Summarize({}).count, 0);
  ScoreSummary s = Summarize({0.5});
  EXPECT_NEAR(s.mean, 0.5, 1e-9);
  EXPECT_NEAR(s.ci95, 0.0, 1e-9);
}

TEST(ReportingTest, FormatCellMatchesPaperStyle) {
  ScoreSummary s;
  s.mean = 0.2374;
  s.ci95 = 0.0065;
  EXPECT_EQ(FormatCell(s), "23.74 ± 0.65%");
}

TEST(ReportingTest, TableRenders) {
  Table table({"Methods", "1-shot"});
  table.AddSection("Static");
  table.AddRow({"FewNER", "23.74 ± 0.65%"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("FewNER"), std::string::npos);
  EXPECT_NE(out.find("Static"), std::string::npos);
  EXPECT_NE(out.find("1-shot"), std::string::npos);
}

TEST(EpisodeF1Test, PerfectAndEmptyPredictions) {
  models::EncodedEpisode episode;
  episode.n_way = 1;
  episode.valid_tags = text::ValidTagMask(1, 3);
  models::EncodedSentence sentence;
  sentence.word_ids = {5, 6, 7};
  sentence.tags = {text::BeginTag(0), text::InsideTag(0), text::kOutsideTag};
  episode.query.push_back(sentence);

  EXPECT_NEAR(EpisodeF1(episode, {{1, 2, 0}}), 1.0, 1e-9);
  EXPECT_NEAR(EpisodeF1(episode, {{0, 0, 0}}), 0.0, 1e-9);
  // Boundary error: predicted span [0,1) vs gold [0,2).
  EXPECT_NEAR(EpisodeF1(episode, {{1, 0, 0}}), 0.0, 1e-9);
}

TEST(ScenarioTest, IntraDomainTypesDisjoint) {
  Scenario scenario = MakeIntraDomainScenario(data::kGenia, 0.02, 3);
  EXPECT_EQ(scenario.source_types.size(), 18u);
  EXPECT_EQ(scenario.target_types.size(), 10u);
  for (const auto& t : scenario.target_types) {
    EXPECT_TRUE(std::find(scenario.source_types.begin(),
                          scenario.source_types.end(),
                          t) == scenario.source_types.end())
        << t << " appears in both splits";
  }
}

TEST(ScenarioTest, CrossDomainIntraTypeSharesTypes) {
  Scenario scenario = MakeCrossDomainIntraType("BN", "CTS", 0.02, 3);
  EXPECT_EQ(scenario.source_types, scenario.target_types);
  EXPECT_NE(scenario.source.sentences.size(), 0u);
  EXPECT_NE(scenario.target.sentences.size(), 0u);
  for (const auto& s : scenario.source.sentences) EXPECT_EQ(s.domain, "BN");
  for (const auto& s : scenario.target.sentences) EXPECT_EQ(s.domain, "CTS");
}

TEST(ScenarioTest, CrossDomainCrossTypeDisjointTypeSpaces) {
  Scenario scenario =
      MakeCrossDomainCrossType(data::kOntoNotes, data::kBioNlp13Cg, 0.02, 3);
  for (const auto& t : scenario.target_types) {
    EXPECT_TRUE(std::find(scenario.source_types.begin(),
                          scenario.source_types.end(),
                          t) == scenario.source_types.end());
  }
}

TEST(MethodRegistryTest, NamesRoundTrip) {
  EXPECT_EQ(AllMethods().size(), 10u);
  for (MethodId id : AllMethods()) {
    EXPECT_EQ(MethodFromName(MethodName(id)), id);
  }
  EXPECT_EQ(MethodFromName("fewner"), MethodId::kFewner);
  EXPECT_EQ(MethodFromName("BERT"), MethodId::kBert);
}

TEST(ExperimentRunnerTest, EndToEndTinyRun) {
  // Smallest meaningful end-to-end run: train ProtoNet for a couple of
  // iterations and evaluate on two episodes.  Checks the whole wiring.
  ExperimentConfig config;
  config.eval_episodes = 2;
  config.eval_query_size = 2;
  config.data_scale = 0.02;
  config.train.iterations = 2;
  config.train.meta_batch = 2;
  config.backbone.word_dim = 8;
  config.backbone.char_dim = 6;
  config.backbone.filters_per_width = 3;
  config.backbone.hidden_dim = 8;
  config.backbone.context_dim = 8;
  Scenario scenario = MakeIntraDomainScenario(data::kGenia, 0.02, 3);
  ExperimentRunner runner(std::move(scenario), config);
  EvalResult result = runner.Evaluate(runner.CreateTrained(MethodId::kProtoNet).get());
  EXPECT_EQ(result.method, "ProtoNet");
  EXPECT_EQ(result.f1.count, 2);
  EXPECT_GE(result.f1.mean, 0.0);
  EXPECT_LE(result.f1.mean, 1.0);
}

TEST(ExperimentRunnerTest, EvalTaskListIsSharedAcrossMethods) {
  ExperimentConfig config;
  config.eval_episodes = 1;
  config.data_scale = 0.02;
  Scenario scenario = MakeIntraDomainScenario(data::kGenia, 0.02, 3);
  ExperimentRunner runner(std::move(scenario), config);
  data::Episode a = runner.eval_sampler().Sample(0);
  data::Episode b = runner.eval_sampler().Sample(0);
  EXPECT_EQ(a.types, b.types);
}

}  // namespace
}  // namespace fewner::eval

#include "eval/error_analysis.h"

namespace fewner::eval {
namespace {

TEST(ErrorAnalysisTest, ClassifiesAllKinds) {
  using text::Span;
  std::vector<Span> gold = {{0, 2, "0"}, {4, 5, "1"}, {7, 8, "2"}};
  std::vector<Span> predicted = {
      {0, 2, "0"},   // correct
      {4, 5, "0"},   // type error (exact extent, wrong label)
      {6, 8, "2"},   // boundary error (overlaps gold [7,8) of same label)
      {10, 11, "1"}  // spurious
  };
  auto outcomes = ClassifySpans(gold, predicted);
  ASSERT_EQ(outcomes.size(), 4u);  // no missed: every gold overlapped
  EXPECT_EQ(outcomes[0].kind, ErrorKind::kCorrect);
  EXPECT_EQ(outcomes[1].kind, ErrorKind::kType);
  EXPECT_EQ(outcomes[2].kind, ErrorKind::kBoundary);
  EXPECT_EQ(outcomes[3].kind, ErrorKind::kSpurious);
}

TEST(ErrorAnalysisTest, MissedGoldSpans) {
  auto outcomes = ClassifySpans({{0, 1, "0"}}, {});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, ErrorKind::kMissed);
}

TEST(ErrorAnalysisTest, AccumulateFromTags) {
  ErrorProfile profile;
  // gold: B-0 I-0 O ; predicted: B-0 O O -> boundary error + that's it.
  AccumulateErrors({1, 2, 0}, {1, 0, 0}, &profile);
  EXPECT_EQ(profile.boundary, 1);
  EXPECT_EQ(profile.correct, 0);
  EXPECT_EQ(profile.missed, 0);  // gold overlapped by the short prediction
  // gold O O O ; predicted B-1 -> spurious.
  AccumulateErrors({0, 0, 0}, {3, 0, 0}, &profile);
  EXPECT_EQ(profile.spurious, 1);
  EXPECT_EQ(profile.total_errors(), 2);
  EXPECT_NE(profile.ToString().find("boundary 1"), std::string::npos);
}

TEST(ErrorAnalysisTest, KindNames) {
  EXPECT_EQ(ErrorKindName(ErrorKind::kCorrect), "correct");
  EXPECT_EQ(ErrorKindName(ErrorKind::kMissed), "missed");
}

}  // namespace
}  // namespace fewner::eval

#include "eval/per_type.h"

namespace fewner::eval {
namespace {

TEST(PerTypeScorerTest, AggregatesAcrossEpisodesByTypeName) {
  models::EncodedEpisode episode;
  episode.n_way = 2;
  episode.valid_tags = text::ValidTagMask(2, 5);
  models::EncodedSentence sentence;
  sentence.word_ids = {1, 2, 3};
  sentence.tags = {text::BeginTag(0), 0, text::BeginTag(1)};
  episode.query.push_back(sentence);

  PerTypeScorer scorer;
  // Episode A: slot 0 = PER, slot 1 = LOC; prediction gets PER right.
  scorer.AddEpisode(episode, {"PER", "LOC"}, {{text::BeginTag(0), 0, 0}});
  // Episode B: slot order flipped; prediction gets LOC (slot 0) right.
  scorer.AddEpisode(episode, {"LOC", "PER"}, {{text::BeginTag(0), 0, 0}});

  const auto& counts = scorer.counts();
  ASSERT_TRUE(counts.count("PER"));
  ASSERT_TRUE(counts.count("LOC"));
  EXPECT_EQ(counts.at("PER").gold, 2);
  EXPECT_EQ(counts.at("PER").correct, 1);
  EXPECT_EQ(counts.at("LOC").gold, 2);
  EXPECT_EQ(counts.at("LOC").correct, 1);
  EXPECT_NEAR(counts.at("PER").Recall(), 0.5, 1e-9);
  EXPECT_NEAR(counts.at("PER").Precision(), 1.0, 1e-9);
}

TEST(PerTypeScorerTest, ReportAndCsv) {
  models::EncodedEpisode episode;
  episode.n_way = 1;
  episode.valid_tags = text::ValidTagMask(1, 3);
  models::EncodedSentence sentence;
  sentence.word_ids = {1};
  sentence.tags = {text::BeginTag(0)};
  episode.query.push_back(sentence);
  PerTypeScorer scorer;
  scorer.AddEpisode(episode, {"GENE"}, {{text::BeginTag(0)}});
  EXPECT_NE(scorer.Report().find("GENE"), std::string::npos);
  const std::string csv = scorer.ToCsv();
  EXPECT_NE(csv.find("type,gold"), std::string::npos);
  EXPECT_NE(csv.find("GENE,1,1,1"), std::string::npos);
}

}  // namespace
}  // namespace fewner::eval

#include "meta/fewner.h"

namespace fewner::eval {
namespace {

TEST(ModelSelectionTest, CallbackCadence) {
  meta::TrainConfig config;
  config.iterations = 10;
  config.callback_every = 4;
  std::vector<int64_t> fired;
  config.iteration_callback = [&](int64_t it) { fired.push_back(it); };
  for (int64_t it = 0; it < config.iterations; ++it) {
    meta::MaybeInvokeCallback(config, it);
  }
  // Fires at iterations 3, 7 (every 4) and 9 (the last).
  EXPECT_EQ(fired, (std::vector<int64_t>{3, 7, 9}));
}

TEST(ModelSelectionTest, DisabledByDefault) {
  meta::TrainConfig config;
  config.iterations = 5;
  bool fired = false;
  config.iteration_callback = [&](int64_t) { fired = true; };
  for (int64_t it = 0; it < config.iterations; ++it) {
    meta::MaybeInvokeCallback(config, it);  // callback_every == 0
  }
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace fewner::eval
