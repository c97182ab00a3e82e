#include "eval/evaluator.h"

#include "text/bio.h"
#include "util/status.h"

namespace fewner::eval {

double EpisodeF1(const models::EncodedEpisode& episode,
                 const std::vector<std::vector<int64_t>>& predictions) {
  FEWNER_CHECK(predictions.size() == episode.query.size(),
               "got " << predictions.size() << " predictions for "
                      << episode.query.size() << " query sentences");
  text::SpanCounts counts;
  for (size_t i = 0; i < episode.query.size(); ++i) {
    counts.Accumulate(text::TagsToSpans(episode.query[i].tags),
                      text::TagsToSpans(predictions[i]));
  }
  return counts.F1();
}

EvalResult EvaluateMethod(meta::FewShotMethod* method,
                          const data::EpisodeSampler& sampler,
                          const models::EpisodeEncoder& encoder, int64_t episodes,
                          int64_t query_size) {
  FEWNER_CHECK(episodes > 0, "EvaluateMethod needs at least one episode, got " << episodes);
  EvalResult result;
  result.method = method->name();
  result.per_episode.reserve(static_cast<size_t>(episodes));
  for (int64_t id = 0; id < episodes; ++id) {
    data::Episode episode = sampler.Sample(static_cast<uint64_t>(id));
    if (static_cast<int64_t>(episode.query.size()) > query_size) {
      episode.query.resize(static_cast<size_t>(query_size));
    }
    models::EncodedEpisode enc = encoder.Encode(episode);
    result.per_episode.push_back(EpisodeF1(enc, method->AdaptAndPredict(enc)));
  }
  result.f1 = Summarize(result.per_episode);
  return result;
}

}  // namespace fewner::eval
