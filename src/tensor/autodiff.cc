#include "tensor/autodiff.h"

#include <memory>
#include <optional>
#include <utility>

#include "tensor/eval_mode.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace fewner::tensor::autodiff {

namespace {

using internal::Node;

constexpr int32_t kNoEntry = -1;

/// One reached node of a walk.
struct Entry {
  Tensor tensor;  ///< holds the node until the walk ends
  Tensor grad;    ///< its accumulated grad; undefined until one arrives
  int32_t requested = -1;   ///< index among the walk's inputs, or -1
  uint32_t edge_begin = 0;  ///< its input edges in Walk::edges
  uint32_t edge_count = 0;
  bool visited = false;
  bool needed = false;  ///< a requested input is reachable from it
  bool owned = false;   ///< `grad` is a buffer this walk allocated for folds
};

/// The state of one backward walk: an entry per reached node, found through
/// an open-addressing index keyed by Node*, plus the DFS's edges and
/// post-order.  A Walk is reused by every walk at its depth of its thread's
/// stack, so its storage is allocated once; generation stamps make clearing
/// the index free.
class Walk {
 public:
  std::vector<Entry> entries;
  /// Per expanded node, the entry of each input in order (kNoEntry: the input
  /// does not require grad).
  std::vector<int32_t> edges;
  std::vector<int32_t> order;  ///< DFS post-order: inputs before consumers
  std::vector<std::pair<int32_t, uint32_t>> stack;  ///< (entry, next input)
  NeedsGrad needs;
  std::vector<bool> folded;  ///< inputs of `current` folded through the handle

  // The running backward loop: FoldInputGrad reads these.
  bool create_graph = false;
  std::vector<std::vector<Tensor>>* contributions = nullptr;
  int32_t current = kNoEntry;
  GradStats stats;

  int32_t Find(const Node* key) const {
    for (size_t s = Home(key);; s = (s + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[s];
      if (slot.generation != generation_) return kNoEntry;
      if (slot.key == key) return slot.entry;
    }
  }

  int32_t FindOrInsert(const Tensor& t) {
    if (2 * (entries.size() + 1) > slots_.size()) Grow();
    const Node* key = t.node();
    size_t s = Home(key);
    for (;; s = (s + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[s];
      if (slot.generation != generation_) break;
      if (slot.key == key) return slot.entry;
    }
    const auto index = static_cast<int32_t>(entries.size());
    slots_[s] = {key, generation_, index};
    entries.emplace_back();
    entries.back().tensor = t;
    return index;
  }

  /// Starts a walk on an empty index.
  void Begin() {
    if (slots_.empty()) slots_.assign(kInitialSlots, Slot{});
    if (++generation_ == 0) {  // wrapped: stale stamps could match again
      slots_.assign(slots_.size(), Slot{});
      generation_ = 1;
    }
    stats = GradStats{};
  }

  /// Ends the walk: drops every tensor it held, and the storage of a walk
  /// several times larger than a training loss's, so a thread keeps under a
  /// MiB per depth between walks.
  void End() {
    entries.clear();
    edges.clear();
    order.clear();
    stack.clear();
    contributions = nullptr;
    current = kNoEntry;
    if (entries.capacity() > kRetainedEntries || slots_.size() > 2 * kRetainedEntries) {
      std::vector<Entry>().swap(entries);
      std::vector<int32_t>().swap(edges);
      std::vector<int32_t>().swap(order);
      std::vector<std::pair<int32_t, uint32_t>>().swap(stack);
      slots_.assign(kInitialSlots, Slot{});
      generation_ = 0;
    }
  }

 private:
  struct Slot {
    const Node* key = nullptr;
    uint32_t generation = 0;
    int32_t entry = kNoEntry;
  };
  static constexpr size_t kInitialSlots = 1024;
  static constexpr size_t kRetainedEntries = size_t{1} << 13;

  size_t Home(const Node* key) const {
    // Fibonacci hashing of the address; the table size is a power of two.
    const uint64_t h = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(key) >> 4) *
                       0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h >> 32) & (slots_.size() - 1);
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), Slot{});
    for (size_t i = 0; i < entries.size(); ++i) {
      const Node* key = entries[i].tensor.node();
      size_t s = Home(key);
      while (slots_[s].generation == generation_) s = (s + 1) & (slots_.size() - 1);
      slots_[s] = {key, generation_, static_cast<int32_t>(i)};
    }
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 0;
};

/// The calling thread's walks, one per nesting depth: a fused op's
/// create_graph closure runs Grad or GradContributions inside the walk that
/// called it.
thread_local std::vector<std::unique_ptr<Walk>> t_walks;
thread_local size_t t_depth = 0;
thread_local GradStats t_last_stats;

/// Claims the calling thread's Walk at the next depth for one walk.
class WalkScope {
 public:
  WalkScope() {
    if (t_walks.size() == t_depth) t_walks.push_back(std::make_unique<Walk>());
    walk_ = t_walks[t_depth++].get();
    walk_->Begin();
  }
  ~WalkScope() {
    walk_->End();
    --t_depth;
  }
  WalkScope(const WalkScope&) = delete;
  WalkScope& operator=(const WalkScope&) = delete;

  Walk& walk() { return *walk_; }

 private:
  Walk* walk_;
};

/// A fold buffer shaped `shape`, from the thread's workspace arena (a
/// first-order walk runs under EvalMode).  Its values are stale.
Tensor NewFoldBuffer(const Shape& shape) {
  std::shared_ptr<Node> node = WorkspaceArena::ThreadLocal().Acquire();
  node->shape = shape;
  node->op = "add";
  node->leaf = false;
  node->values.resize(static_cast<size_t>(shape.numel()));
  return Tensor::FromRecycledNode(std::move(node));
}

/// First order: adds `g` to the accumulator `a`, which holds a grad.  An
/// owned buffer takes it in place; a grad held by reference is never
/// written, so the walk allocates `prev + g` once and owns that.
void FoldValues(Walk& walk, Entry& a, const float* g) {
  ++walk.stats.folds;
  const int64_t n = a.grad.numel();
  if (a.owned) {
    float* acc = a.grad.node()->values.data();
    FEWNER_SIMD
    for (int64_t i = 0; i < n; ++i) acc[i] = acc[i] + g[i];
    return;
  }
  Tensor sum = NewFoldBuffer(a.grad.shape());
  const float* prev = a.grad.data().data();
  float* out = sum.node()->values.data();
  FEWNER_SIMD
  for (int64_t i = 0; i < n; ++i) out[i] = prev[i] + g[i];
  a.grad = std::move(sum);
  a.owned = true;
  ++walk.stats.fold_buffers;
}

/// Hands grad `g` to entry `c`: appended to its contribution list if it is a
/// requested input of GradContributions, else folded into its accumulator.
void Accumulate(Walk& walk, int32_t c, const Tensor& g) {
  Entry& a = walk.entries[static_cast<size_t>(c)];
  if (walk.contributions != nullptr && a.requested >= 0) {
    (*walk.contributions)[static_cast<size_t>(a.requested)].push_back(g);
    return;
  }
  if (!a.grad.defined()) {
    a.grad = g;
    a.owned = false;
    return;
  }
  if (walk.create_graph) {
    ++walk.stats.folds;
    ++walk.stats.fold_buffers;
    a.grad = Add(a.grad, g);
    return;
  }
  FoldValues(walk, a, g.data().data());
}

/// The walk behind Grad and GradContributions, seeded with `seed`.  Leaves
/// each reached node's folded grad in its entry (a requested input's stays
/// after its closure runs); when `contributions` is non-null (the seeded
/// walk, which never expands its inputs), the grads that reach input i are
/// appended to (*contributions)[i] in arrival order instead of being folded.
void Backward(Walk& walk, const Tensor& output, const std::vector<Tensor>& inputs,
              bool create_graph, const Tensor& seed,
              std::vector<std::vector<Tensor>>* contributions) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Tensor& input = inputs[i];
    FEWNER_CHECK(input.defined(), "Grad on undefined input");
    FEWNER_CHECK(input.requires_grad(),
                 "Grad requested for a tensor that does not require grad (op: "
                     << input.op_name() << ")");
    Entry& e = walk.entries[static_cast<size_t>(walk.FindOrInsert(input))];
    FEWNER_CHECK(contributions == nullptr || e.requested < 0,
                 "GradContributions needs distinct inputs");
    if (e.requested < 0) e.requested = static_cast<int32_t>(i);
  }
  walk.create_graph = create_graph;
  walk.contributions = contributions;
  if (!output.requires_grad()) return;

  // Post-order DFS from the output, iterative to survive deep graphs.  The
  // seeded walk stops at its inputs: nothing past them is walked, built or
  // differentiated.
  const bool stop_at_inputs = contributions != nullptr;
  auto expand = [&](int32_t index) {
    Entry& e = walk.entries[static_cast<size_t>(index)];
    e.visited = true;
    e.edge_begin = static_cast<uint32_t>(walk.edges.size());
    e.edge_count = stop_at_inputs && e.requested >= 0
                       ? 0
                       : static_cast<uint32_t>(e.tensor.node()->inputs.size());
    walk.edges.resize(walk.edges.size() + e.edge_count, kNoEntry);
    walk.stack.emplace_back(index, 0);
  };
  const int32_t root = walk.FindOrInsert(output);
  expand(root);
  while (!walk.stack.empty()) {
    const int32_t index = walk.stack.back().first;
    uint32_t next = walk.stack.back().second;
    const Entry& e = walk.entries[static_cast<size_t>(index)];
    const uint32_t begin = e.edge_begin;
    const uint32_t count = e.edge_count;
    const std::vector<Tensor>& edges = e.tensor.node()->inputs;
    int32_t descend = kNoEntry;
    while (next < count) {
      const Tensor& child = edges[next++];
      if (!child.requires_grad()) continue;
      const int32_t c = walk.FindOrInsert(child);  // may move `e`
      walk.edges[begin + next - 1] = c;
      if (!walk.entries[static_cast<size_t>(c)].visited) {
        descend = c;
        break;
      }
    }
    walk.stack.back().second = next;
    if (descend != kNoEntry) {
      expand(descend);
    } else {
      walk.order.push_back(index);
      walk.stack.pop_back();
    }
  }
  walk.stats.nodes_walked = static_cast<int64_t>(walk.order.size());

  // A node is "needed" if a requested input is reachable from it; we only run
  // backward through needed nodes.  Inputs appear before consumers in
  // `order`, so one forward scan suffices.
  for (const int32_t index : walk.order) {
    Entry& e = walk.entries[static_cast<size_t>(index)];
    if (e.requested >= 0) {
      e.needed = true;
      continue;
    }
    for (uint32_t k = e.edge_begin; k < e.edge_begin + e.edge_count; ++k) {
      const int32_t c = walk.edges[k];
      if (c != kNoEntry && walk.entries[static_cast<size_t>(c)].needed) {
        e.needed = true;
        break;
      }
    }
  }

  Entry& out = walk.entries[static_cast<size_t>(root)];
  if (out.needed) Accumulate(walk, root, seed);

  // Without create_graph the gradient tensors are detached before they leave
  // Grad, so nothing downstream ever differentiates through them — run the
  // whole backward on the graph-free arena path instead of building (and then
  // discarding) a second graph.  Values are bitwise-unchanged: eval mode runs
  // the same kernels in the same fold order.  This is the test-time
  // inner-loop hot path (see models::CachedPrefix), where backward cost now
  // rivals the φ-suffix forward itself.
  std::optional<EvalMode> eval;
  if (!create_graph) eval.emplace();

  // The entries do not move from here on: only this walk inserts into them,
  // and nested walks run on their own.
  for (auto it = walk.order.rbegin(); it != walk.order.rend(); ++it) {
    Entry& e = walk.entries[static_cast<size_t>(*it)];
    if (!e.needed || !e.grad.defined()) continue;  // output does not depend on it
    Node* node = e.tensor.node();
    // A backward closure may rewrite the inputs of a consumer this loop has
    // already processed (tensor::FusedOp re-points its pass-through node at
    // the composite it rebuilt).  That is safe because a node's
    // inputs are read only by the DFS and in its own iteration, and its
    // entry holds every node of the walk, so a node its consumer lets go of
    // stays alive until the walk ends.
    const std::vector<Tensor>& edges = node->inputs;
    if (edges.empty() || !node->backward) continue;
    if (stop_at_inputs && e.requested >= 0) continue;
    FEWNER_CHECK(edges.size() == e.edge_count,
                 node->op << " changed its inputs between the walk and its backward");
    walk.needs.assign(edges.size(), false);
    walk.folded.assign(edges.size(), false);
    for (uint32_t k = 0; k < e.edge_count; ++k) {
      const int32_t c = walk.edges[e.edge_begin + k];
      walk.needs[k] = c != kNoEntry && walk.entries[static_cast<size_t>(c)].needed;
    }
    walk.current = *it;
    std::vector<Tensor> input_grads = node->backward(e.tensor, e.grad, walk.needs);
    walk.current = kNoEntry;
    FEWNER_CHECK(input_grads.size() == edges.size(),
                 "backward of " << node->op << " returned " << input_grads.size()
                                << " grads for " << edges.size() << " inputs");
    for (size_t i = 0; i < input_grads.size(); ++i) {
      if (!walk.needs[i]) continue;
      const Tensor& g = input_grads[i];
      if (!g.defined()) {
        FEWNER_CHECK(walk.folded[i], "backward of " << node->op
                                                    << " returned undefined grad for a "
                                                       "needed input");
        continue;
      }
      FEWNER_CHECK(g.shape() == edges[i].shape(),
                   "backward of " << node->op << " produced grad shape "
                                  << g.shape().ToString() << " for input shape "
                                  << edges[i].shape().ToString());
      // Fan-in accumulation for multiply-consumed nodes.  The fold order is
      // the reverse of `order`, which DFS fixes from graph structure alone —
      // never from addresses — so a subgraph consumed by many heads (e.g. a
      // shared θ-prefix reused by every inner-step loss, see
      // models::CachedPrefix) accumulates its upstream gradients in the same
      // order on every run, keeping Grad bit-reproducible.
      Accumulate(walk, walk.edges[e.edge_begin + i], g);
    }
    // Every consumer has run, so nothing reads this grad again unless Grad
    // returns it; dropping it here lets the arena reuse its buffer.
    if (e.requested < 0) {
      e.grad = Tensor();
      e.owned = false;
    }
  }
}

/// The innermost running walk and the entry of input `input` of the node
/// whose closure is running, after FoldInputGrad's checks.
std::pair<Walk*, int32_t> HandleTarget(size_t input) {
  FEWNER_CHECK(t_depth > 0, "FoldInputGrad outside a backward closure");
  Walk& walk = *t_walks[t_depth - 1];
  FEWNER_CHECK(walk.current != kNoEntry, "FoldInputGrad outside a backward closure");
  const Entry& e = walk.entries[static_cast<size_t>(walk.current)];
  FEWNER_CHECK(input < e.edge_count && walk.needs[input],
               "FoldInputGrad into input " << input << " of " << e.tensor.op_name()
                                           << ", which needs no grad");
  walk.folded[input] = true;
  return {&walk, walk.edges[e.edge_begin + input]};
}

/// A first-order result cut off from the walk.  When the walk's handle and
/// its thread's arena are the only holders of the grad's node, its buffer
/// moves into the result: no copy, and no arena node pinned by a caller that
/// keeps the grad (a meta-batch holds every task's grads until it reduces
/// them, and pinned nodes would grow the arena).  Else Detach().
Tensor Release(const Tensor& g) {
  Node* node = g.node();
  if (node->pooled && g.use_count() == 2) {
    return Tensor::FromData(node->shape, std::move(node->values));
  }
  return g.Detach();
}

}  // namespace

std::vector<Tensor> Grad(const Tensor& output, const std::vector<Tensor>& inputs,
                         bool create_graph) {
  FEWNER_CHECK(output.defined(), "Grad on undefined output");
  FEWNER_CHECK(output.numel() == 1,
               "Grad expects a scalar loss, got shape " << output.shape().ToString());
  WalkScope scope;
  Walk& walk = scope.walk();
  Backward(walk, output, inputs, create_graph, Tensor::Ones(output.shape()), nullptr);
  std::vector<Tensor> result;
  result.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    const Tensor& g = walk.entries[static_cast<size_t>(walk.Find(input.node()))].grad;
    if (!g.defined()) {
      result.push_back(Tensor::Zeros(input.shape()));
    } else {
      result.push_back(create_graph ? g : Release(g));
    }
  }
  if (t_depth == 1) t_last_stats = walk.stats;
  return result;
}

std::vector<std::vector<Tensor>> GradContributions(const Tensor& output,
                                                   const std::vector<Tensor>& inputs,
                                                   const Tensor& seed) {
  FEWNER_CHECK(output.defined(), "GradContributions on undefined output");
  FEWNER_CHECK(seed.defined() && seed.shape() == output.shape(),
               "GradContributions seed shape "
                   << (seed.defined() ? seed.shape().ToString() : std::string("undefined"))
                   << " does not match output shape " << output.shape().ToString());
  std::vector<std::vector<Tensor>> contributions(inputs.size());
  WalkScope scope;
  Backward(scope.walk(), output, inputs, /*create_graph=*/true, seed, &contributions);
  if (t_depth == 1) t_last_stats = scope.walk().stats;
  return contributions;
}

void FoldInputGrad(size_t input, const Tensor& grad) {
  auto [walk, c] = HandleTarget(input);
  const Entry& target = walk->entries[static_cast<size_t>(c)];
  FEWNER_CHECK(grad.defined() && grad.shape() == target.tensor.shape(),
               "FoldInputGrad: grad of shape "
                   << (grad.defined() ? grad.shape().ToString() : std::string("undefined"))
                   << " for input shape " << target.tensor.shape().ToString());
  Accumulate(*walk, c, grad);
}

void FoldInputGrad(size_t input, const float* grad) {
  auto [walk, c] = HandleTarget(input);
  FEWNER_CHECK(!walk->create_graph, "FoldInputGrad from raw values under create_graph");
  Entry& a = walk->entries[static_cast<size_t>(c)];
  if (a.grad.defined()) {
    FoldValues(*walk, a, grad);
    return;
  }
  a.grad = NewFoldBuffer(a.tensor.shape());
  const int64_t n = a.grad.numel();
  float* out = a.grad.node()->values.data();
  for (int64_t i = 0; i < n; ++i) out[i] = grad[i];
  a.owned = true;
  ++walk->stats.fold_buffers;
}

GradStats LastGradStats() { return t_last_stats; }

int64_t GraphSize(const Tensor& t) {
  if (!t.defined()) return 0;
  WalkScope scope;
  Walk& walk = scope.walk();
  std::vector<int32_t>& stack = walk.order;  // unvisited-frontier entries
  stack.push_back(walk.FindOrInsert(t));
  while (!stack.empty()) {
    const int32_t index = stack.back();
    stack.pop_back();
    // Copy the handle: inserting a child may move the entries.
    const Tensor current = walk.entries[static_cast<size_t>(index)].tensor;
    for (const Tensor& child : current.node()->inputs) {
      const size_t before = walk.entries.size();
      const int32_t c = walk.FindOrInsert(child);
      if (walk.entries.size() > before) stack.push_back(c);
    }
  }
  return static_cast<int64_t>(walk.entries.size());
}

}  // namespace fewner::tensor::autodiff
