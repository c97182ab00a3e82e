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
/// Without `grad_output`, `output` must be a single-element tensor (a loss)
/// and the backward is seeded with one.  With `grad_output` (the shape of
/// `output`, any size) the backward is seeded with it instead, giving the
/// vector-Jacobian product grad_outputᵀ·∂output/∂input, and Grad treats the
/// inputs as the independent variables of the graph between them and
/// `output`: it does not walk past an input, so a path that runs through one
/// input does not reach another, and the graph upstream of the inputs is never
/// visited.  A fused op's backward closure uses this to differentiate its
/// composite definition, built over fresh copies of its inputs, under the
/// upstream gradient (see crf::LinearChainCrf).  The seed is used as given, so
/// under create_graph a graph-node seed stays differentiable.
///
/// Inputs that the output does not depend on receive zero gradients.  When
/// `create_graph` is false the returned gradients are detached leaves (cheap
/// to consume in optimizers) and the whole backward runs under EvalMode, so a
/// closure can tell the two cases apart with EvalMode::active(); when true
/// they are differentiable graph nodes.
std::vector<Tensor> Grad(const Tensor& output, const std::vector<Tensor>& inputs,
                         bool create_graph = false, const Tensor& grad_output = Tensor());

/// The seeded create_graph Grad (`grad_output` is required), with each
/// input's gradient left unfolded: entry i lists the grads that reach
/// inputs[i] from its consumers, in the order Grad adds them, so Grad's
/// result is their left fold with Add (an empty list: the output does not
/// depend on the input).  The grads carry their graph.  Inputs must be
/// distinct.  A fused op whose composite reads a shared tensor
/// through several consumers lists that tensor once per consumer among its
/// node's inputs and hands these grads to the enclosing Grad one by one, so
/// the enclosing fold is the composite's (see nn::GruCell::Recurrence).
std::vector<std::vector<Tensor>> GradContributions(const Tensor& output,
                                                   const std::vector<Tensor>& inputs,
                                                   const Tensor& grad_output);

/// Number of graph nodes reachable from `t` (diagnostic for tests).
int64_t GraphSize(const Tensor& t);

}  // namespace fewner::tensor::autodiff
