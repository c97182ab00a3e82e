#include "meta/parallel.h"

#include <atomic>
#include <cmath>

#include "tensor/intraop.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace fewner::meta {

ParallelMetaBatch::ParallelMetaBatch(int64_t num_threads, ReplicaFactory factory,
                                     ReplicaSync sync)
    : num_threads_(ResolveThreadCount(num_threads)),
      factory_(std::move(factory)),
      sync_(std::move(sync)) {
  FEWNER_CHECK(factory_ != nullptr && sync_ != nullptr,
               "ParallelMetaBatch needs a replica factory and sync");
  if (num_threads_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(num_threads_);
  }
}

ParallelMetaBatch::~ParallelMetaBatch() = default;

int64_t ParallelMetaBatch::ResolveThreadCount(int64_t requested) {
  if (requested > 0) return requested;
  return util::ThreadPool::DefaultThreadCount();
}

nn::Module* ParallelMetaBatch::Replica(int64_t i) {
  while (static_cast<int64_t>(replicas_.size()) <= i) {
    replicas_.push_back(factory_());
    FEWNER_CHECK(replicas_.back() != nullptr, "replica factory returned null");
    // Snapshot the parameter handles once per replica.  The sync contract
    // (value copies into existing leaves) keeps these aliased to the live
    // parameters, so tasks never pay the per-episode tree walk again.
    replica_params_.push_back(nn::ParameterTensors(replicas_.back().get()));
  }
  return replicas_[static_cast<size_t>(i)].get();
}

double ParallelMetaBatch::Run(int64_t num_tasks, const TaskFn& fn,
                              GradAccumulator* accumulator) {
  FEWNER_CHECK(num_tasks > 0, "ParallelMetaBatch::Run with no tasks");
  struct TaskResult {
    std::vector<tensor::Tensor> grads;
    double loss = 0.0;
  };
  std::vector<TaskResult> results(static_cast<size_t>(num_tasks));

  const int64_t workers = std::min(num_threads_, num_tasks);
  if (workers <= 1 || pool_ == nullptr) {
    nn::Module* replica = Replica(0);
    const std::vector<tensor::Tensor>& params = replica_params_[0];
    for (int64_t t = 0; t < num_tasks; ++t) {
      sync_(replica);
      results[static_cast<size_t>(t)].loss =
          fn(t, replica, params, &results[static_cast<size_t>(t)].grads);
    }
  } else {
    // Replicas are created on the calling thread; workers claim task indices
    // from a shared counter so an uneven task-cost mix still load-balances.
    for (int64_t w = 0; w < workers; ++w) Replica(w);
    std::atomic<int64_t> next{0};
    for (int64_t w = 0; w < workers; ++w) {
      nn::Module* replica = Replica(w);
      const std::vector<tensor::Tensor>* params = &replica_params_[static_cast<size_t>(w)];
      pool_->Submit([&, replica, params] {
        // Episode workers own the cores at the coarse grain; letting each one
        // also shard its GEMMs would oversubscribe.  Pin intra-op to serial
        // for this worker's tasks (bitwise-neutral either way — see
        // tensor/intraop.h).  The serial fallback path above leaves the
        // ambient budget alone, so single-worker runs still shard inside ops.
        const tensor::ParallelismBudget serial_gemms(1);
        for (;;) {
          const int64_t t = next.fetch_add(1, std::memory_order_relaxed);
          if (t >= num_tasks) return;
          // Re-sync before every task: a replica's parameters may have been
          // mutated by the previous task it ran (e.g. Reptile's inner SGD).
          sync_(replica);
          results[static_cast<size_t>(t)].loss =
              fn(t, replica, *params, &results[static_cast<size_t>(t)].grads);
        }
      });
    }
    pool_->Wait();
  }

  // Deterministic reduction: ascending task order, single thread.
  double loss_sum = 0.0;
  for (int64_t t = 0; t < num_tasks; ++t) {
    TaskResult& result = results[static_cast<size_t>(t)];
    if (accumulator != nullptr) accumulator->Add(result.grads);
    loss_sum += result.loss;
  }
  return loss_sum;
}

ParallelMetaBatch BackboneMetaBatch(int64_t num_threads, models::Backbone* master) {
  FEWNER_CHECK(master != nullptr, "BackboneMetaBatch needs a master backbone");
  auto factory = [master]() -> std::unique_ptr<nn::Module> {
    // The init draws are discarded by the first sync; any seed works.
    util::Rng init_rng(0x5EED5EED5EED5EEDull);
    return std::make_unique<models::Backbone>(master->config(), &init_rng);
  };
  auto sync = [master](nn::Module* replica) {
    auto* net = static_cast<models::Backbone*>(replica);
    net->CopyParametersFrom(master);
    net->SetTraining(master->training());
    net->set_dropout_base(master->dropout_base());
  };
  return ParallelMetaBatch(num_threads, std::move(factory), std::move(sync));
}

models::EncodedEpisode PrepareTrainingTask(const data::EpisodeSampler& sampler,
                                           const models::EpisodeEncoder& encoder,
                                           const TrainConfig& config,
                                           uint64_t episode_id,
                                           models::Backbone* net) {
  data::Episode episode = sampler.Sample(episode_id);
  BoundTrainingEpisode(config, &episode);
  FEWNER_CHECK(!episode.support.empty() && !episode.query.empty(),
               "degenerate training episode " << episode_id);
  models::EncodedEpisode enc = encoder.Encode(episode);
  if (net != nullptr) net->ReseedDropout(episode_id);
  return enc;
}

void RunOuterLoop(const TrainConfig& config, nn::Module* master,
                  ParallelMetaBatch* batch, std::string_view name,
                  std::string_view loss_name, const OuterTaskFn& task,
                  const OuterUpdateFn& update) {
  FEWNER_CHECK(config.meta_batch > 0, "meta_batch must be positive");
  FEWNER_CHECK(config.lr_decay_every > 0, "lr_decay_every must be positive");
  FEWNER_CHECK(config.iterations >= 0, "iterations must not be negative");
  master->SetTraining(true);
  const std::vector<tensor::Tensor> params = nn::ParameterTensors(master);
  for (int64_t it = 0; it < config.iterations; ++it) {
    const uint64_t base = static_cast<uint64_t>(it * config.meta_batch);
    GradAccumulator accumulator(params);
    const double loss_sum = batch->Run(
        config.meta_batch,
        [&](int64_t t, nn::Module* model,
            const std::vector<tensor::Tensor>& replica_params,
            std::vector<tensor::Tensor>* grads) {
          return task(base + static_cast<uint64_t>(t), model, replica_params, grads);
        },
        &accumulator);
    update(it, accumulator.Finish(1.0 / static_cast<double>(config.meta_batch)));
    MaybeInvokeCallback(config, it);
    if (config.verbose && (it % 10 == 0 || it + 1 == config.iterations)) {
      FEWNER_LOG(INFO) << name << " iteration " << it << " " << loss_name << " "
                       << loss_sum / static_cast<double>(config.meta_batch);
    }
  }
  master->SetTraining(false);
}

bool LrDecayDue(const TrainConfig& config, int64_t iteration) {
  const int64_t tasks_seen = (iteration + 1) * config.meta_batch;
  return tasks_seen / config.lr_decay_every !=
         (tasks_seen - config.meta_batch) / config.lr_decay_every;
}

models::BackboneConfig WithoutConditioning(models::BackboneConfig config) {
  config.conditioning = models::Conditioning::kNone;
  config.context_dim = 0;
  return config;
}

float InnerClipScale(const std::vector<tensor::Tensor>& grads) {
  constexpr float kInnerClip = 5.0f;
  double norm_sq = 0.0;
  for (const tensor::Tensor& g : grads) {
    for (float v : g.data()) norm_sq += static_cast<double>(v) * v;
  }
  const float norm = static_cast<float>(std::sqrt(norm_sq));
  return norm > kInnerClip ? kInnerClip / norm : 1.0f;
}

}  // namespace fewner::meta
