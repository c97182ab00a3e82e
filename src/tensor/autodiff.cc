#include "tensor/autodiff.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "tensor/eval_mode.h"
#include "tensor/ops.h"

namespace fewner::tensor::autodiff {

namespace {

/// Post-order (inputs before consumers) list of requires_grad nodes reachable
/// from `root`, computed iteratively to survive deep graphs.  The inputs of a
/// node in `stop` (if non-null) are not expanded.
std::vector<Tensor> TopologicalOrder(const Tensor& root,
                                     const std::unordered_set<internal::Node*>* stop) {
  static const std::vector<Tensor> kNoInputs;
  std::vector<Tensor> order;
  std::unordered_set<internal::Node*> visited;
  // Stack frames: (tensor, next input index to expand).
  std::vector<std::pair<Tensor, size_t>> stack;
  if (!root.requires_grad()) return order;
  stack.emplace_back(root, 0);
  visited.insert(root.node());
  while (!stack.empty()) {
    auto& [tensor, next] = stack.back();
    const auto& inputs = stop != nullptr && stop->count(tensor.node()) > 0
                             ? kNoInputs
                             : tensor.node()->inputs;
    bool descended = false;
    while (next < inputs.size()) {
      const Tensor& child = inputs[next++];
      if (child.requires_grad() && !visited.count(child.node())) {
        visited.insert(child.node());
        stack.emplace_back(child, 0);
        descended = true;
        break;
      }
    }
    if (!descended && next >= inputs.size()) {
      order.push_back(tensor);
      stack.pop_back();
    }
  }
  return order;
}

/// The backward walk behind Grad and GradContributions.  Returns the folded
/// gradient of every reached node; when `contributions` is non-null (a seeded
/// walk, which never expands its inputs), the grads that reach input i are
/// appended to (*contributions)[i] in arrival order instead of being folded.
std::unordered_map<internal::Node*, Tensor> Backward(
    const Tensor& output, const std::vector<Tensor>& inputs, bool create_graph,
    const Tensor& grad_output, std::vector<std::vector<Tensor>>* contributions) {
  FEWNER_CHECK(output.defined(), "Grad on undefined output");
  if (grad_output.defined()) {
    FEWNER_CHECK(grad_output.shape() == output.shape(),
                 "Grad seed shape " << grad_output.shape().ToString()
                                    << " does not match output shape "
                                    << output.shape().ToString());
  } else {
    FEWNER_CHECK(output.numel() == 1,
                 "Grad expects a scalar loss, got shape " << output.shape().ToString());
  }
  for (const Tensor& input : inputs) {
    FEWNER_CHECK(input.defined(), "Grad on undefined input");
    FEWNER_CHECK(input.requires_grad(),
                 "Grad requested for a tensor that does not require grad (op: "
                     << input.op_name() << ")");
  }

  std::unordered_map<internal::Node*, size_t> requested;
  for (size_t i = 0; i < inputs.size(); ++i) requested.emplace(inputs[i].node(), i);
  FEWNER_CHECK(contributions == nullptr || requested.size() == inputs.size(),
               "GradContributions needs distinct inputs");
  // A seeded Grad stops at its inputs: nothing past them is walked, built or
  // differentiated.
  const bool stop_at_inputs = grad_output.defined();
  std::unordered_set<internal::Node*> stop;
  if (stop_at_inputs) {
    for (const Tensor& input : inputs) stop.insert(input.node());
  }
  std::vector<Tensor> order = TopologicalOrder(output, stop_at_inputs ? &stop : nullptr);

  // A node is "needed" if a requested input is reachable from it; we only run
  // backward through needed nodes.  Inputs appear before consumers in `order`,
  // so one forward scan suffices.
  std::unordered_set<internal::Node*> needed;
  for (const Tensor& t : order) {
    if (requested.count(t.node())) {
      needed.insert(t.node());
      continue;
    }
    for (const Tensor& child : t.node()->inputs) {
      if (child.requires_grad() && needed.count(child.node())) {
        needed.insert(t.node());
        break;
      }
    }
  }

  std::unordered_map<internal::Node*, Tensor> grads;
  if (output.requires_grad() && needed.count(output.node())) {
    const Tensor seed = grad_output.defined() ? grad_output : Tensor::Ones(output.shape());
    auto it = requested.find(output.node());
    if (contributions != nullptr && it != requested.end()) {
      (*contributions)[it->second].push_back(seed);
    } else {
      grads[output.node()] = seed;
    }
  }

  // Without create_graph the gradient tensors are detached before they leave
  // this function, so nothing downstream ever differentiates through them —
  // run the whole backward on the graph-free arena path instead of building
  // (and then discarding) a second graph.  Values are bitwise-unchanged: eval
  // mode runs the same kernels in the same fold order.  This is the test-time
  // inner-loop hot path (see models::CachedPrefix), where backward cost now
  // rivals the φ-suffix forward itself.
  std::optional<EvalMode> eval;
  if (!create_graph) eval.emplace();

  // Per-node mask of the inputs whose grads are needed; the backward closure
  // builds only those (an input that is frozen θ, or that reaches no
  // requested input, costs no gradient expression at all).
  NeedsGrad needs;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Tensor& t = *it;
    if (!needed.count(t.node())) continue;
    auto grad_it = grads.find(t.node());
    if (grad_it == grads.end()) continue;  // output does not depend on this node
    // A backward closure may rewrite the inputs of a consumer this loop has
    // already processed (nn::GruCell::Recurrence re-points its pass-through
    // node at the composite it rebuilt).  That is safe because each node's
    // `edges` are read only within its own iteration, and `order` holds a
    // reference to every node of the walk, so a node its consumer lets go of
    // stays alive until Backward returns.
    const std::vector<Tensor>& edges = t.node()->inputs;
    if (edges.empty() || !t.node()->backward) continue;
    if (stop_at_inputs && requested.count(t.node())) continue;
    needs.clear();
    for (const Tensor& child : edges) {
      needs.push_back(child.requires_grad() && needed.count(child.node()) > 0);
    }
    std::vector<Tensor> input_grads = t.node()->backward(t, grad_it->second, needs);
    FEWNER_CHECK(input_grads.size() == edges.size(),
                 "backward of " << t.op_name() << " returned " << input_grads.size()
                                << " grads for " << edges.size() << " inputs");
    for (size_t i = 0; i < input_grads.size(); ++i) {
      if (!needs[i]) continue;
      const Tensor& child = edges[i];
      const Tensor& g = input_grads[i];
      FEWNER_CHECK(g.defined(), "backward of " << t.op_name()
                                               << " returned undefined grad for a "
                                                  "needed input");
      FEWNER_CHECK(g.shape() == child.shape(),
                   "backward of " << t.op_name() << " produced grad shape "
                                  << g.shape().ToString() << " for input shape "
                                  << child.shape().ToString());
      if (contributions != nullptr) {
        auto req = requested.find(child.node());
        if (req != requested.end()) {
          (*contributions)[req->second].push_back(g);
          continue;
        }
      }
      auto existing = grads.find(child.node());
      if (existing == grads.end()) {
        grads[child.node()] = g;
      } else {
        // Fan-in accumulation for multiply-consumed nodes.  The fold order is
        // the reverse of `order`, which DFS fixes from graph structure alone —
        // never from hash-map iteration — so a subgraph consumed by many
        // heads (e.g. a shared θ-prefix reused by every inner-step loss, see
        // models::CachedPrefix) accumulates its upstream gradients in the
        // same order on every run, keeping Grad bit-reproducible.
        existing->second = Add(existing->second, g);
      }
    }
  }
  return grads;
}

}  // namespace

std::vector<Tensor> Grad(const Tensor& output, const std::vector<Tensor>& inputs,
                         bool create_graph, const Tensor& grad_output) {
  std::unordered_map<internal::Node*, Tensor> grads =
      Backward(output, inputs, create_graph, grad_output, nullptr);
  std::vector<Tensor> result;
  result.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    auto it2 = grads.find(input.node());
    if (it2 == grads.end()) {
      result.push_back(Tensor::Zeros(input.shape()));
    } else {
      result.push_back(create_graph ? it2->second : it2->second.Detach());
    }
  }
  return result;
}

std::vector<std::vector<Tensor>> GradContributions(const Tensor& output,
                                                   const std::vector<Tensor>& inputs,
                                                   const Tensor& grad_output) {
  FEWNER_CHECK(grad_output.defined(), "GradContributions needs a seed");
  std::vector<std::vector<Tensor>> contributions(inputs.size());
  Backward(output, inputs, /*create_graph=*/true, grad_output, &contributions);
  return contributions;
}

int64_t GraphSize(const Tensor& t) {
  if (!t.defined()) return 0;
  std::unordered_set<internal::Node*> visited;
  std::vector<Tensor> stack{t};
  visited.insert(t.node());
  while (!stack.empty()) {
    Tensor current = stack.back();
    stack.pop_back();
    for (const Tensor& child : current.node()->inputs) {
      if (!visited.count(child.node())) {
        visited.insert(child.node());
        stack.push_back(child);
      }
    }
  }
  return static_cast<int64_t>(visited.size());
}

}  // namespace fewner::tensor::autodiff
