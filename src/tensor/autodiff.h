// Reverse-mode automatic differentiation over the Tensor graph.
//
// Grad() is functional (in the style of jax.grad / torch.autograd.grad): it
// returns gradient tensors instead of mutating parameter state.  With
// create_graph=true the returned gradients remain connected to the graph and
// can be differentiated again — this is what makes the second-order
// meta-gradient of FEWNER/MAML exact rather than a first-order approximation.

#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace fewner::tensor::autodiff {

/// Computes d(output)/d(input) for each tensor in `inputs`.
///
/// `output` must be a single-element tensor (a loss).  Inputs that the output
/// does not depend on receive zero gradients.  When `create_graph` is false the
/// returned gradients are detached leaves (cheap to consume in optimizers);
/// when true they are differentiable graph nodes.
std::vector<Tensor> Grad(const Tensor& output, const std::vector<Tensor>& inputs,
                         bool create_graph = false);

/// Number of graph nodes reachable from `t` (diagnostic for tests).
int64_t GraphSize(const Tensor& t);

}  // namespace fewner::tensor::autodiff
