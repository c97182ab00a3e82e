#include "tensor/tensor.h"

#include <atomic>
#include <sstream>

namespace fewner::tensor {

namespace {
std::atomic<uint64_t> g_next_node_id{1};
}  // namespace

Tensor Tensor::FromData(Shape shape, std::vector<float> values, bool requires_grad) {
  FEWNER_CHECK(static_cast<int64_t>(values.size()) == shape.numel(),
               "FromData: " << values.size() << " values for shape "
                            << shape.ToString());
  auto node = std::make_shared<internal::Node>();
  node->shape = std::move(shape);
  node->values = std::move(values);
  node->requires_grad = requires_grad;
  node->id = g_next_node_id.fetch_add(1);
  return Tensor(std::move(node));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData(Shape{}, {value}, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  std::vector<float> values(static_cast<size_t>(shape.numel()), value);
  return FromData(std::move(shape), std::move(values), requires_grad);
}

Tensor Tensor::Randn(Shape shape, util::Rng* rng, float stddev, bool requires_grad) {
  FEWNER_CHECK(rng != nullptr, "Randn requires an Rng");
  std::vector<float> values(static_cast<size_t>(shape.numel()));
  for (float& v : values) v = static_cast<float>(rng->Gaussian(0.0, stddev));
  return FromData(std::move(shape), std::move(values), requires_grad);
}

Tensor Tensor::FromNode(std::shared_ptr<internal::Node> node) {
  node->id = g_next_node_id.fetch_add(1);
  return Tensor(std::move(node));
}

const Shape& Tensor::shape() const {
  FEWNER_CHECK(defined(), "shape() on undefined tensor");
  return node_->shape;
}

const std::vector<float>& Tensor::data() const {
  FEWNER_CHECK(defined(), "data() on undefined tensor");
  return node_->viewed ? node_->viewed->values : node_->values;
}

std::vector<float>* Tensor::mutable_data() {
  FEWNER_CHECK(defined(), "mutable_data() on undefined tensor");
  // inputs.empty() alone is not enough: eval-mode op outputs drop their input
  // edges but remain op results whose buffers the WorkspaceArena may recycle.
  FEWNER_CHECK(node_->inputs.empty() && node_->leaf,
               "mutable_data() is only valid on leaf tensors (op: " << node_->op << ")");
  if (node_->viewed) {  // copy on write: the viewed op output never changes
    node_->values = node_->viewed->values;
    node_->viewed.reset();
  }
  // Conservatively counts every mutable access as a mutation: cheaper than
  // value hashing, and a false "changed" only costs a cache rebuild.
  ++node_->version;
  return &node_->values;
}

float Tensor::item() const {
  FEWNER_CHECK(numel() == 1, "item() on tensor of shape " << shape().ToString());
  return data()[0];
}

bool Tensor::requires_grad() const { return defined() && node_->requires_grad; }

Tensor Tensor::Detach() const {
  FEWNER_CHECK(defined(), "Detach() on undefined tensor");
  auto node = std::make_shared<internal::Node>();
  node->shape = node_->shape;
  // Only a node without graph edges is viewed: holding one that has them
  // would keep its inputs and backward closure, and so the whole graph
  // behind it, alive for as long as the result lives.
  std::shared_ptr<internal::Node> storage = shared_storage();
  if (storage && storage->inputs.empty()) {
    node->viewed = std::move(storage);
  } else {
    node->values = data();
  }
  node->requires_grad = false;
  node->op = "detach";
  return FromNode(std::move(node));
}

std::shared_ptr<internal::Node> Tensor::shared_storage() const {
  if (node_->viewed) return node_->viewed;
  if (node_->leaf) return nullptr;
  return node_;
}

void Tensor::set_requires_grad(bool value) {
  FEWNER_CHECK(defined(), "set_requires_grad on undefined tensor");
  FEWNER_CHECK(node_->inputs.empty() && node_->leaf,
               "set_requires_grad is only valid on leaves");
  node_->requires_grad = value;
}

const char* Tensor::op_name() const {
  FEWNER_CHECK(defined(), "op_name() on undefined tensor");
  return node_->op;
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream oss;
  oss << "Tensor(shape=" << shape().ToString() << ", op=" << node_->op;
  if (numel() <= 16) {
    oss << ", values=[";
    for (int64_t i = 0; i < numel(); ++i) {
      if (i > 0) oss << ", ";
      oss << data()[static_cast<size_t>(i)];
    }
    oss << "]";
  }
  oss << ")";
  return oss.str();
}

}  // namespace fewner::tensor
