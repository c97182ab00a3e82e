#include "reference/layer_reference.h"

#include <algorithm>
#include <string>
#include <utility>

#include "tensor/ops.h"

namespace fewner::reference {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// The module's parameter slots in registration order.  NamedParameters() is
/// non-const only because the slots are patchable; the oracles just read them.
std::vector<std::pair<std::string, Tensor*>> Slots(const nn::Module& module) {
  return const_cast<nn::Module&>(module).NamedParameters();
}

const Tensor& Slot(const std::vector<std::pair<std::string, Tensor*>>& slots,
                   size_t index, const std::string& name) {
  FEWNER_CHECK(index < slots.size() && slots[index].first == name,
               "expected parameter " << name << " at slot " << index);
  return *slots[index].second;
}

}  // namespace

Tensor CharCnnWord(const nn::CharCnn& cnn, const std::vector<int64_t>& chars) {
  // Slots: char_embedding.table, then filter_w<w>.weight ([w*D, F]) and
  // filter_w<w>.bias per filter width, in configuration order.
  const auto slots = Slots(cnn);
  const Tensor& table = Slot(slots, 0, "char_embedding.table");
  const int64_t char_dim = table.shape().dim(1);
  struct Filter {
    int64_t width;
    const Tensor* weight;
    const Tensor* bias;
  };
  std::vector<Filter> filters;
  int64_t max_width = 0;
  for (size_t i = 1; i < slots.size(); i += 2) {
    const int64_t width = slots[i].second->shape().dim(0) / char_dim;
    const std::string prefix = "filter_w" + std::to_string(width);
    filters.push_back({width, &Slot(slots, i, prefix + ".weight"),
                       &Slot(slots, i + 1, prefix + ".bias")});
    max_width = std::max(max_width, width);
  }

  std::vector<int64_t> ids = chars;
  if (static_cast<int64_t>(ids.size()) < max_width) {
    ids.resize(static_cast<size_t>(max_width), 0);
  }
  const int64_t length = static_cast<int64_t>(ids.size());
  Tensor embedded = tensor::Reshape(tensor::IndexSelectRows(table, ids),
                                    Shape{1, length, char_dim});
  std::vector<Tensor> pooled;
  for (const Filter& filter : filters) {
    const int64_t windows = length - filter.width + 1;
    Tensor unfolded =
        tensor::Reshape(tensor::UnfoldTimeBatch(embedded, filter.width),
                        Shape{windows, filter.width * char_dim});
    Tensor conv = tensor::Relu(
        tensor::Add(tensor::MatMul(unfolded, *filter.weight), *filter.bias));
    pooled.push_back(tensor::MaxAxis(conv, 0, /*keepdim=*/false));  // [F]
  }
  return tensor::Concat(pooled, 0);
}

Tensor CrfNll(const crf::LinearChainCrf& crf, const Tensor& emissions,
              const std::vector<int64_t>& tags, const std::vector<bool>* valid_tags) {
  const auto slots = Slots(crf);
  const Tensor& transitions = Slot(slots, 0, "transitions");  // [from, to]
  const Tensor& start = Slot(slots, 1, "start");
  const Tensor& end = Slot(slots, 2, "end");
  const int64_t y = crf.num_tags();
  const int64_t length = emissions.shape().dim(0);
  FEWNER_CHECK(emissions.rank() == 2 && emissions.shape().dim(1) == y,
               "emissions must be [L, " << y << "]");
  FEWNER_CHECK(static_cast<int64_t>(tags.size()) == length,
               "got " << tags.size() << " tags for " << length << " tokens");

  // Crush invalid tags out of every path (the library's -1e7 validity mask).
  std::vector<float> validity(static_cast<size_t>(y), 0.0f);
  if (valid_tags != nullptr) {
    for (int64_t j = 0; j < y; ++j) {
      if (!(*valid_tags)[static_cast<size_t>(j)]) validity[static_cast<size_t>(j)] = -1e7f;
    }
  }
  Tensor masked = tensor::Add(emissions, Tensor::FromData(Shape{y}, std::move(validity)));

  // Log partition function: by_to[j, i] = alpha[i] + transitions[i, j], built
  // in [to, from] layout from transitionsᵀ hoisted out of the time loop.
  Tensor alpha = tensor::Add(tensor::Reshape(start, Shape{1, y}),
                             tensor::Slice(masked, 0, 0, 1));  // [1, Y]
  Tensor trans_by_to = tensor::Transpose(transitions);
  for (int64_t t = 1; t < length; ++t) {
    Tensor by_to = tensor::Add(tensor::Reshape(alpha, Shape{y}), trans_by_to);
    alpha = tensor::Add(
        tensor::Reshape(tensor::LogSumExpLastDim(by_to), Shape{1, y}),
        tensor::Slice(masked, 0, t, 1));
  }
  Tensor log_z = tensor::Reshape(tensor::LogSumExpLastDim(tensor::Add(alpha, end)),
                                 Shape{});

  // Gold path score via constant selection masks.
  std::vector<float> emit_mask(static_cast<size_t>(length * y), 0.0f);
  for (int64_t t = 0; t < length; ++t) {
    emit_mask[static_cast<size_t>(t * y + tags[static_cast<size_t>(t)])] = 1.0f;
  }
  std::vector<float> trans_count(static_cast<size_t>(y * y), 0.0f);
  for (int64_t t = 1; t < length; ++t) {
    trans_count[static_cast<size_t>(tags[static_cast<size_t>(t - 1)] * y +
                                    tags[static_cast<size_t>(t)])] += 1.0f;
  }
  std::vector<float> start_mask(static_cast<size_t>(y), 0.0f);
  start_mask[static_cast<size_t>(tags.front())] = 1.0f;
  std::vector<float> end_mask(static_cast<size_t>(y), 0.0f);
  end_mask[static_cast<size_t>(tags.back())] = 1.0f;
  Tensor gold_emit = tensor::SumAll(tensor::Mul(
      masked, Tensor::FromData(Shape{length, y}, std::move(emit_mask))));
  Tensor gold_trans = tensor::SumAll(tensor::Mul(
      transitions, Tensor::FromData(Shape{y, y}, std::move(trans_count))));
  Tensor gold_start = tensor::SumAll(
      tensor::Mul(start, Tensor::FromData(Shape{y}, std::move(start_mask))));
  Tensor gold_end =
      tensor::SumAll(tensor::Mul(end, Tensor::FromData(Shape{y}, std::move(end_mask))));
  Tensor gold_score =
      tensor::Add(tensor::Add(gold_emit, gold_trans), tensor::Add(gold_start, gold_end));
  return tensor::Sub(log_z, gold_score);
}

}  // namespace fewner::reference
