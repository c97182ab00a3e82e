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
  bool requires_grad = false;
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

  /// Read-only access to the flat row-major values.
  const std::vector<float>& data() const;

  /// Mutable access; only valid for leaves, since op outputs are conceptually
  /// immutable once consumed (and, in eval mode, physically recycled).  Used
  /// by optimizers for in-place parameter updates.  Checked: calling this on
  /// an op output aborts, in graph mode and eval mode alike.
  std::vector<float>* mutable_data();

  /// Value of a rank-0 / single-element tensor.
  float item() const;

  /// Element at a flat index.
  float at(int64_t i) const { return data()[static_cast<size_t>(i)]; }

  bool requires_grad() const;

  /// Returns a new leaf holding a copy of this tensor's values, cut off from
  /// the graph (requires_grad false, a fresh node id).
  Tensor Detach() const;

  /// Marks a leaf as trainable (participates in autodiff).
  void set_requires_grad(bool value);

  const char* op_name() const;

  internal::Node* node() const { return node_.get(); }

  /// Pretty-prints shape and (small tensors') values for debugging.
  std::string ToString() const;

 private:
  explicit Tensor(std::shared_ptr<internal::Node> node) : node_(std::move(node)) {}

  std::shared_ptr<internal::Node> node_;
};

}  // namespace fewner::tensor
