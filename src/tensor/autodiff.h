// Reverse-mode automatic differentiation over the Tensor graph.
//
// Grad() is functional (in the style of jax.grad / torch.autograd.grad): it
// returns gradient tensors instead of mutating parameter state.  With
// create_graph=true the returned gradients remain connected to the graph and
// can be differentiated again — this is what makes the second-order
// meta-gradient of FEWNER/MAML exact rather than a first-order approximation.
//
// The walk.  Grad visits the requires_grad nodes reachable from the output in
// DFS post-order (inputs before consumers), which graph structure alone fixes,
// and runs the backward closures in reverse.  Every reached node has one
// accumulator; the grads that reach it are left-folded with `+` in arrival
// order, so the fold order, and with it every bit of the result, never depends
// on addresses or hashing.  The walk's bookkeeping is one flat table per
// thread (nested walks, run from inside a closure, take the next table of a
// small per-thread stack); nothing is stored on the nodes, which concurrent
// Grads on other threads share (θ leaves).
//
// The in-place rule (first order only).  The first grad to reach a node is
// kept by reference and never written to: a closure may hand one tensor to
// several inputs (Add's backward passes its upstream grad through).  The
// second allocates `prev + g` once, a buffer the walk owns and shows nobody
// until the node's own closure runs; every later grad is added into it in
// place, `acc[i] = acc[i] + g[i]`, the same float adds in the same order as a
// chain of Adds.  Under create_graph every fold is an Add node, so
// second-order graphs are the composite's.

#pragma once

#include <cstddef>
#include <cstdint>
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
/// upstream gradient (see crf::LinearChainCrf).  The seed is used as given
/// (never written to), so under create_graph a graph-node seed stays
/// differentiable.
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
/// distinct.  A fused op whose composite reads a shared tensor through
/// several consumers hands these grads to the enclosing Grad one by one
/// through FoldInputGrad, so the enclosing fold is the composite's (see
/// nn::GruCell::Recurrence).
std::vector<std::vector<Tensor>> GradContributions(const Tensor& output,
                                                   const std::vector<Tensor>& inputs,
                                                   const Tensor& grad_output);

/// The fold handle of a backward closure.  Called from inside the closure
/// that Grad is running, it folds `grad` (the shape of the node's input
/// `input`, which `needs` must ask for) into that input's accumulator right
/// away, by the rules above: kept by reference if nothing has arrived yet,
/// else an Add node under create_graph, else the in-place rule.  The closure
/// returns an undefined grad for an input it folded this way.  Folds land in
/// call order, before any grad the closure returns is folded; a closure that
/// folds part of an input's grad here and returns the rest gets that order.
/// This is how a fused op whose composite reads a tensor once per step
/// (gru_recurrence's w_hh and b_hh) folds its per-step grads in the
/// composite's order without a node input per step.
void FoldInputGrad(size_t input, const Tensor& grad);

/// FoldInputGrad for a first-order walk (create_graph false), from raw
/// values: `grad` holds the input's numel floats, read before the call
/// returns, so a closure may fold every step's grad from one reused scratch
/// buffer.  The first arrival is copied into a buffer the walk owns.
void FoldInputGrad(size_t input, const float* grad);

/// Exact counters of one backward walk.
struct GradStats {
  int64_t nodes_walked = 0;  ///< requires_grad nodes the walk reached
  int64_t folds = 0;         ///< grads added to an accumulator that held one
  int64_t fold_buffers = 0;  ///< accumulator buffers (or Add nodes) allocated
};

/// The counters of the last outermost Grad or GradContributions on the
/// calling thread (walks nested inside its closures are not included).
GradStats LastGradStats();

/// Number of graph nodes reachable from `t` (diagnostic for tests).
int64_t GraphSize(const Tensor& t);

}  // namespace fewner::tensor::autodiff
