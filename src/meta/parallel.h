// Episode-parallel meta-batch execution with a deterministic reduction.
//
// The outer loop of every meta-learning method here backpropagates each task
// of a meta-batch independently and sums the per-task gradients, so the batch
// is embarrassingly parallel.  ParallelMetaBatch runs each task's full
// pipeline (sample -> encode -> inner-loop adaptation -> outer backward) on a
// worker thread against a *replica* of the method's model, then reduces the
// per-task gradients into a GradAccumulator in ascending task order on the
// calling thread.
//
// Determinism contract: results are bit-identical for ANY thread count
// (including the inline 1-thread path) because
//   1. every task is a pure function of its episode id — the sampler is
//      stateless, and the replica's dropout stream is re-forked per task from
//      a base copied off the master (never from draw history);
//   2. replicas are value-synced from the master before every task, so which
//      worker runs a task cannot matter;
//   3. gradients accumulate into double buffers in fixed task order on one
//      thread (see GradAccumulator).
//
// Thread isolation: each worker owns its replica, so autodiff graphs — node
// allocation, ParameterPatch slot swaps, inner-loop create_graph chains —
// never share mutable state across threads.  The master's parameter values
// are read concurrently but only written by the caller after Run() returns.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "data/episode_sampler.h"
#include "meta/grad_accumulator.h"
#include "meta/method.h"
#include "models/backbone.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fewner::meta {

/// Runs meta-batch tasks on model replicas and reduces deterministically.
class ParallelMetaBatch {
 public:
  /// Builds one replica of the method's model (parameter values are
  /// overwritten by `sync` before use, so the factory's init values are moot).
  using ReplicaFactory = std::function<std::unique_ptr<nn::Module>()>;

  /// Makes `replica` equivalent to the master: parameter values, training
  /// mode, and any non-parameter state a task depends on (dropout base).
  /// Must update parameters IN PLACE (value copy into the existing leaves,
  /// as Module::CopyParametersFrom does), never replace slot tensors — the
  /// per-replica parameter snapshot handed to TaskFn is built once and must
  /// stay aliased to the replica's live parameters across syncs.
  using ReplicaSync = std::function<void(nn::Module* replica)>;

  /// Runs task `task` of the batch on `model` (the replica, already synced):
  /// fills `grads` with the task's detached gradient tensors in accumulator
  /// layout and returns the task's loss.  `params` is the replica's parameter
  /// snapshot (nn::ParameterTensors order), materialized once per replica so
  /// per-task lambdas need not rebuild it.
  using TaskFn = std::function<double(int64_t task, nn::Module* model,
                                      const std::vector<tensor::Tensor>& params,
                                      std::vector<tensor::Tensor>* grads)>;

  /// `num_threads` <= 0 resolves through ResolveThreadCount().
  ParallelMetaBatch(int64_t num_threads, ReplicaFactory factory, ReplicaSync sync);
  ~ParallelMetaBatch();

  ParallelMetaBatch(ParallelMetaBatch&&) = default;
  ParallelMetaBatch& operator=(ParallelMetaBatch&&) = delete;

  /// Executes tasks 0..num_tasks-1 and adds each task's gradients to
  /// `accumulator` in ascending task order.  Returns the sum of task losses
  /// (also reduced in task order).  `accumulator` may be null when the caller
  /// only needs the losses.
  double Run(int64_t num_tasks, const TaskFn& fn, GradAccumulator* accumulator);

  int64_t num_threads() const { return num_threads_; }

  /// `requested` > 0 is used as-is; otherwise the FEWNER_THREADS environment
  /// variable decides (see util::ThreadPool::DefaultThreadCount).
  static int64_t ResolveThreadCount(int64_t requested);

 private:
  nn::Module* Replica(int64_t i);

  int64_t num_threads_;
  ReplicaFactory factory_;
  ReplicaSync sync_;
  std::vector<std::unique_ptr<nn::Module>> replicas_;  ///< lazily built, one per worker
  /// replica_params_[i] snapshots replicas_[i]'s parameters once, at build
  /// time; valid forever because syncs copy values in place.
  std::vector<std::vector<tensor::Tensor>> replica_params_;
  std::unique_ptr<util::ThreadPool> pool_;             ///< null when single-threaded
};

/// ParallelMetaBatch over plain Backbone replicas of `master` — the common
/// case for fewner/maml/protonet/matching_net/reptile/finetune.
ParallelMetaBatch BackboneMetaBatch(int64_t num_threads, models::Backbone* master);

/// Per-task preamble shared by every method: samples episode `episode_id`,
/// applies the training bounds, encodes it, and re-forks `net`'s dropout
/// stream for the task (`net` may be null for dropout-free models).  Checks
/// the episode is non-degenerate.
models::EncodedEpisode PrepareTrainingTask(const data::EpisodeSampler& sampler,
                                           const models::EpisodeEncoder& encoder,
                                           const TrainConfig& config,
                                           uint64_t episode_id,
                                           models::Backbone* net);

/// One task of the outer loop: the method's inner loop and loss for episode
/// `episode_id` on the synced replica `model`.  Same contract as TaskFn
/// otherwise: fills `grads` in accumulator layout and returns the task loss.
using OuterTaskFn = std::function<double(uint64_t episode_id, nn::Module* model,
                                         const std::vector<tensor::Tensor>& params,
                                         std::vector<tensor::Tensor>* grads)>;

/// The method's outer update after iteration `iteration`, given the
/// 1/meta_batch mean of the meta-batch's task gradients.
using OuterUpdateFn =
    std::function<void(int64_t iteration, std::vector<tensor::Tensor> mean)>;

/// Algorithm 1's outer loop, shared by every episode-trained method.  Puts
/// `master` in training mode, then for each of `config.iterations` iterations
/// runs `config.meta_batch` tasks with episode ids `it * meta_batch + t`
/// through `batch`, reduces their gradients in task order, hands the mean to
/// `update`, invokes the iteration callback and logs
/// "<name> iteration <it> <loss_name> <mean task loss>".  Leaves `master` in
/// eval mode when every iteration has run; an exception thrown by the
/// callback propagates after that iteration's update.  Checks `config` at
/// entry: meta_batch > 0, lr_decay_every > 0 and iterations >= 0.
void RunOuterLoop(const TrainConfig& config, nn::Module* master,
                  ParallelMetaBatch* batch, std::string_view name,
                  std::string_view loss_name, const OuterTaskFn& task,
                  const OuterUpdateFn& update);

/// True when the tasks of iteration `iteration` cross a multiple of
/// `config.lr_decay_every` — when FEWNER and MAML decay their meta learning
/// rate.  Only valid for a config RunOuterLoop accepted.
bool LrDecayDue(const TrainConfig& config, int64_t iteration);

/// `config` without context parameters: conditioning kNone and context_dim
/// 0, the backbone of every method but FEWNER.
models::BackboneConfig WithoutConditioning(models::BackboneConfig config);

/// The detached scale of an inner step's global-norm clip (the paper's clip
/// of 5), shared by FEWNER's φ step and MAML's inner step: the norm of all of
/// `grads`, accumulated in double in order, and 5 / norm when it exceeds 5,
/// else 1.  (nn::ClipGradNorm adds an epsilon to the norm, so it is not this.)
float InnerClipScale(const std::vector<tensor::Tensor>& grads);

}  // namespace fewner::meta
