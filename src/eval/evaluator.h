// Episode-level evaluation of few-shot methods (paper §4.1.1).
//
// Every method is evaluated on the SAME deterministic list of held-out tasks
// (the sampler's seed fixes the list, exactly as the paper fixes the random
// seed in the evaluation phase).  The score of one episode is the micro-F1
// over its query sentences: F1 = 2c / (g + r).

#pragma once

#include <vector>

#include "data/episode_sampler.h"
#include "eval/statistics.h"
#include "meta/method.h"
#include "models/encoding.h"

namespace fewner::eval {

/// Evaluation result for one method.
struct EvalResult {
  std::string method;
  ScoreSummary f1;                    ///< over per-episode F1 (in [0, 1])
  std::vector<double> per_episode;    ///< raw per-episode F1 scores
};

/// Runs `episodes` (> 0) held-out tasks through the method.
EvalResult EvaluateMethod(meta::FewShotMethod* method,
                          const data::EpisodeSampler& sampler,
                          const models::EpisodeEncoder& encoder, int64_t episodes,
                          int64_t query_size);

/// Per-episode F1 for an already-encoded episode and its predictions.
double EpisodeF1(const models::EncodedEpisode& episode,
                 const std::vector<std::vector<int64_t>>& predictions);

}  // namespace fewner::eval
