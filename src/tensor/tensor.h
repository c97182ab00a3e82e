// Tensor: a value-semantic handle to a node in a dynamically built computation
// graph.  Ops (see ops.h) create nodes whose backward functions are expressed
// in terms of the same ops, so gradients are themselves graph nodes and can be
// differentiated again — the property the second-order meta-gradient of FEWNER
// (Eq. 6 in the paper) requires.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"
#include "util/status.h"

namespace fewner::tensor {

class Tensor;

/// Which of a node's inputs the running autodiff::Grad needs a gradient for:
/// entry i is true when input i requires grad and a requested input is
/// reachable from it (PyTorch's `needs_input_grad`).
using NeedsGrad = std::vector<bool>;

/// Given the node's own output tensor, the upstream gradient and the NeedsGrad
/// mask of its inputs, returns one gradient tensor per input.  The entry of
/// an input the mask does not ask for may be an undefined Tensor, and should
/// be: Grad discards it.
using BackwardFn = std::function<std::vector<Tensor>(
    const Tensor& self, const Tensor& grad_out, const NeedsGrad& needs)>;

namespace internal {

/// A node in the computation graph: values plus provenance for backprop.
struct Node {
  Shape shape;
  std::vector<float> values;
  /// Set on a view (Reshape of an op output, Detach of one without graph
  /// edges, FusedOp's pass-through node): the node whose `values` this one
  /// reads, never itself a view.  A view's own `values` stay empty.  Holding
  /// the node keeps its buffer out of the WorkspaceArena, which recycles only
  /// nodes nobody else holds.
  std::shared_ptr<Node> viewed;
  bool requires_grad = false;
  /// True while a WorkspaceArena holds the node in its pool.
  bool pooled = false;
  /// True for user-created leaves (FromData/Detach), false for op outputs.
  /// Eval-mode op outputs carry no input edges, so `inputs.empty()` alone
  /// cannot tell a leaf from an op result; this flag can.
  bool leaf = true;
  const char* op = "leaf";
  std::vector<Tensor> inputs;
  BackwardFn backward;
  uint64_t id = 0;  ///< Monotonic creation index; gives deterministic traversal.
  /// In-place mutation counter, bumped by every mutable_data() access.  The
  /// (id, version) pair therefore changes whenever a leaf's values may have
  /// changed — by in-place optimizer steps (version) or by slot replacement
  /// (fresh id) — which is what lets models::CachedPrefix detect stale θ.
  uint64_t version = 0;
};

}  // namespace internal

/// Handle to an immutable graph node.  Copying is cheap (shared ownership).
class Tensor {
 public:
  /// Undefined tensor; defined() is false.
  Tensor() = default;

  /// Leaf from explicit data; `values.size()` must equal `shape.numel()`.
  static Tensor FromData(Shape shape, std::vector<float> values,
                         bool requires_grad = false);

  /// Rank-0 scalar leaf.
  static Tensor Scalar(float value, bool requires_grad = false);

  /// Leaf filled with a constant.
  static Tensor Full(Shape shape, float value, bool requires_grad = false);

  static Tensor Zeros(Shape shape, bool requires_grad = false) {
    return Full(std::move(shape), 0.0f, requires_grad);
  }
  static Tensor Ones(Shape shape, bool requires_grad = false) {
    return Full(std::move(shape), 1.0f, requires_grad);
  }

  /// Leaf with i.i.d. Gaussian entries of the given standard deviation.
  static Tensor Randn(Shape shape, util::Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);

  /// Internal: wraps an op result node.
  static Tensor FromNode(std::shared_ptr<internal::Node> node);

  /// Internal: wraps an eval-mode op result without assigning a fresh node id.
  /// Eval outputs never join an autodiff traversal, the id's only consumer,
  /// and skipping the atomic counter keeps the fast path contention-free.
  static Tensor FromRecycledNode(std::shared_ptr<internal::Node> node) {
    return Tensor(std::move(node));
  }

  bool defined() const { return node_ != nullptr; }

  const Shape& shape() const;
  int64_t numel() const { return shape().numel(); }
  int64_t rank() const { return shape().rank(); }

  /// Read-only access to the flat row-major values (a view's are those of
  /// the node it views).
  const std::vector<float>& data() const;

  /// Mutable access; only valid for leaves, since op outputs are conceptually
  /// immutable once consumed (and, in eval mode, physically recycled).  Used
  /// by optimizers for in-place parameter updates.  Checked: calling this on
  /// an op output aborts, in graph mode and eval mode alike.  A Detach()ed
  /// view copies its values into a buffer of its own first (copy on write),
  /// so the op output it viewed never changes.
  std::vector<float>* mutable_data();

  /// Value of a rank-0 / single-element tensor.
  float item() const;

  /// Element at a flat index.
  float at(int64_t i) const { return data()[static_cast<size_t>(i)]; }

  bool requires_grad() const;

  /// Returns a new leaf with this tensor's values, cut off from the graph
  /// (requires_grad false, a fresh node id).  The leaf views the values of an
  /// op output without graph edges (an eval-mode output, a released
  /// first-order grad), or of the node such a view reads, instead of copying
  /// them: op outputs never change.  A graph-mode op output is copied, since
  /// viewing it would keep its inputs and backward closure, and so its whole
  /// graph, alive; so is a leaf, since optimizers and LoadParameters write
  /// leaves in place.
  Tensor Detach() const;

  /// Marks a leaf as trainable (participates in autodiff).
  void set_requires_grad(bool value);

  const char* op_name() const;

  internal::Node* node() const { return node_.get(); }

  /// Internal: handles sharing this tensor's node, this one included.
  long use_count() const { return node_.use_count(); }

  /// Internal: the node a view of this tensor reads — the node it views, or
  /// the op output itself — or null for a leaf that owns its values, which
  /// can change in place and so is copied (Reshape, Detach).
  std::shared_ptr<internal::Node> shared_storage() const;

  /// Pretty-prints shape and (small tensors') values for debugging.
  std::string ToString() const;

 private:
  explicit Tensor(std::shared_ptr<internal::Node> node) : node_(std::move(node)) {}

  std::shared_ptr<internal::Node> node_;
};

}  // namespace fewner::tensor
