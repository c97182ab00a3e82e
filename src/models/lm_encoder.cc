#include "models/lm_encoder.h"

#include <algorithm>
#include <numeric>

#include "nn/init.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::models {

using tensor::Shape;
using tensor::Tensor;

std::string LmKindName(LmKind kind) {
  switch (kind) {
    case LmKind::kGpt2:
      return "GPT2";
    case LmKind::kFlair:
      return "Flair";
    case LmKind::kElmo:
      return "ELMo";
    case LmKind::kBert:
      return "BERT";
    case LmKind::kXlnet:
      return "XLNet";
  }
  return "?";
}

std::vector<LmKind> AllLmKinds() {
  return {LmKind::kGpt2, LmKind::kFlair, LmKind::kElmo, LmKind::kBert,
          LmKind::kXlnet};
}

PretrainedLmEncoder::PretrainedLmEncoder(LmKind kind, const LmConfig& config,
                                         const text::Vocab* word_vocab,
                                         const text::Vocab* char_vocab,
                                         util::Rng* rng)
    : kind_(kind),
      config_(config),
      word_vocab_(word_vocab),
      char_vocab_(char_vocab),
      mask_rng_(rng->Fork(0xBE27u)) {
  FEWNER_CHECK(word_vocab_ != nullptr && char_vocab_ != nullptr,
               "LM encoder requires vocabularies");
  const bool is_transformer =
      kind == LmKind::kGpt2 || kind == LmKind::kBert || kind == LmKind::kXlnet;

  if (kind != LmKind::kFlair) {
    word_embedding_ = std::make_unique<nn::Embedding>(word_vocab_->size(),
                                                      config.model_dim, rng);
    RegisterModule("word_embedding", word_embedding_.get());
  }

  if (is_transformer) {
    position_embedding_ = std::make_unique<nn::Embedding>(config.max_len,
                                                          config.model_dim, rng);
    RegisterModule("position_embedding", position_embedding_.get());
    const nn::AttentionMask mask = (kind == LmKind::kBert)
                                       ? nn::AttentionMask::kNone
                                       : nn::AttentionMask::kCausal;
    for (int64_t i = 0; i < config.num_layers; ++i) {
      blocks_.push_back(std::make_unique<nn::TransformerBlock>(
          config.model_dim, config.ffn_dim, mask, rng));
      RegisterModule("block" + std::to_string(i), blocks_.back().get());
    }
    if (kind == LmKind::kXlnet) {
      for (int64_t i = 0; i < config.num_layers; ++i) {
        blocks_rev_.push_back(std::make_unique<nn::TransformerBlock>(
            config.model_dim, config.ffn_dim, nn::AttentionMask::kCausal, rng));
        RegisterModule("block_rev" + std::to_string(i), blocks_rev_.back().get());
      }
    }
    vocab_head_ = std::make_unique<nn::Linear>(config.model_dim, word_vocab_->size(),
                                               rng);
    RegisterModule("vocab_head", vocab_head_.get());
    if (kind == LmKind::kBert) {
      mask_embedding_ = nn::GaussianInit(Shape{1, config.model_dim}, 0.1f, rng);
      RegisterParameter("mask_embedding", &mask_embedding_);
    }
  } else if (kind == LmKind::kElmo) {
    forward_gru_ =
        std::make_unique<nn::GruCell>(config.model_dim, config.gru_hidden, rng);
    backward_gru_ =
        std::make_unique<nn::GruCell>(config.model_dim, config.gru_hidden, rng);
    RegisterModule("forward_gru", forward_gru_.get());
    RegisterModule("backward_gru", backward_gru_.get());
    vocab_head_ = std::make_unique<nn::Linear>(config.gru_hidden,
                                               word_vocab_->size(), rng);
    RegisterModule("vocab_head", vocab_head_.get());
  } else {  // kFlair
    char_embedding_ = std::make_unique<nn::Embedding>(char_vocab_->size(),
                                                      config.char_dim, rng);
    char_forward_gru_ =
        std::make_unique<nn::GruCell>(config.char_dim, config.gru_hidden, rng);
    char_backward_gru_ =
        std::make_unique<nn::GruCell>(config.char_dim, config.gru_hidden, rng);
    char_head_ = std::make_unique<nn::Linear>(config.gru_hidden, char_vocab_->size(),
                                              rng);
    RegisterModule("char_embedding", char_embedding_.get());
    RegisterModule("char_forward_gru", char_forward_gru_.get());
    RegisterModule("char_backward_gru", char_backward_gru_.get());
    RegisterModule("char_head", char_head_.get());
  }
}

int64_t PretrainedLmEncoder::feature_dim() const {
  switch (kind_) {
    case LmKind::kGpt2:
    case LmKind::kBert:
    case LmKind::kXlnet:
      return config_.model_dim;
    case LmKind::kElmo:
    case LmKind::kFlair:
      return 2 * config_.gru_hidden;
  }
  return config_.model_dim;
}

namespace {

/// One sentence's GRU states [L, H] from its embedded inputs [L, input]:
/// GruCell::RunBatch at B=1, so every step is full and no Where is built.
/// `reverse` runs right-to-left but returns states in textual order.
Tensor GruStates(const nn::GruCell& cell, const Tensor& embedded, bool reverse) {
  const int64_t length = embedded.shape().dim(0);
  std::vector<Tensor> masks;
  std::vector<bool> full;
  nn::BuildStepMasks({length}, length, &masks, &full);
  Tensor states = cell.RunBatch(
      tensor::Reshape(embedded, Shape{1, length, embedded.shape().dim(1)}),
      masks, full, reverse);
  return tensor::Reshape(states, Shape{length, cell.hidden_dim()});
}

}  // namespace

Tensor PretrainedLmEncoder::TransformerFeatures(const std::vector<int64_t>& word_ids,
                                                bool reverse) const {
  std::vector<int64_t> ids = word_ids;
  if (reverse) std::reverse(ids.begin(), ids.end());
  const int64_t length = static_cast<int64_t>(ids.size());
  FEWNER_CHECK(length <= config_.max_len,
               "sentence of " << length << " tokens exceeds LM max_len "
                              << config_.max_len);
  std::vector<int64_t> positions(static_cast<size_t>(length));
  std::iota(positions.begin(), positions.end(), int64_t{0});
  Tensor x = tensor::Add(word_embedding_->Forward(ids),
                         position_embedding_->Forward(positions));
  for (const auto& block : reverse ? blocks_rev_ : blocks_) x = block->Forward(x);
  if (!reverse) return x;
  std::reverse(positions.begin(), positions.end());  // row t <- row L-1-t
  return tensor::IndexSelectRows(x, positions);
}

Tensor PretrainedLmEncoder::CrossEntropy(const Tensor& logits,
                                         const std::vector<int64_t>& targets,
                                         const std::vector<bool>* predict_mask) const {
  const int64_t length = logits.shape().dim(0);
  const int64_t vocab = logits.shape().dim(1);
  FEWNER_CHECK(static_cast<int64_t>(targets.size()) == length,
               "CrossEntropy target length mismatch");
  Tensor logp = tensor::LogSoftmaxLastDim(logits);
  std::vector<float> select(static_cast<size_t>(length * vocab), 0.0f);
  int64_t predicted = 0;
  for (int64_t t = 0; t < length; ++t) {
    if (predict_mask != nullptr && !(*predict_mask)[static_cast<size_t>(t)]) continue;
    select[static_cast<size_t>(t * vocab + targets[static_cast<size_t>(t)])] = 1.0f;
    ++predicted;
  }
  FEWNER_CHECK(predicted > 0, "CrossEntropy with no predicted positions");
  Tensor gold = tensor::SumAll(
      tensor::Mul(logp, Tensor::FromData(logits.shape(), std::move(select))));
  return tensor::MulScalar(tensor::Neg(gold), 1.0f / static_cast<float>(predicted));
}

Tensor PretrainedLmEncoder::Encode(const EncodedSentence& sentence) const {
  const int64_t length = sentence.length();
  FEWNER_CHECK(length > 0, "Encode on empty sentence");
  switch (kind_) {
    case LmKind::kGpt2:
    case LmKind::kBert:
      return TransformerFeatures(sentence.word_ids, /*reverse=*/false);
    case LmKind::kXlnet: {
      Tensor a = TransformerFeatures(sentence.word_ids, false);
      Tensor b = TransformerFeatures(sentence.word_ids, true);
      return tensor::MulScalar(tensor::Add(a, b), 0.5f);
    }
    case LmKind::kElmo: {
      Tensor embedded = word_embedding_->Forward(sentence.word_ids);
      Tensor fwd = GruStates(*forward_gru_, embedded, false);
      Tensor bwd = GruStates(*backward_gru_, embedded, true);
      return tensor::Concat({fwd, bwd}, 1);
    }
    case LmKind::kFlair: {
      // Character stream with <pad> as the inter-word separator; word features
      // are forward states at word ends + backward states at word starts.
      std::vector<int64_t> stream;
      std::vector<int64_t> word_end, word_start;
      for (int64_t w = 0; w < length; ++w) {
        word_start.push_back(static_cast<int64_t>(stream.size()));
        const auto& chars = sentence.char_ids[static_cast<size_t>(w)];
        stream.insert(stream.end(), chars.begin(), chars.end());
        if (chars.empty()) stream.push_back(text::kPadId);
        word_end.push_back(static_cast<int64_t>(stream.size()) - 1);
        stream.push_back(text::kPadId);  // separator
      }
      Tensor embedded = char_embedding_->Forward(stream);
      Tensor fwd = GruStates(*char_forward_gru_, embedded, false);
      Tensor bwd = GruStates(*char_backward_gru_, embedded, true);
      return tensor::Concat({tensor::IndexSelectRows(fwd, word_end),
                             tensor::IndexSelectRows(bwd, word_start)},
                            1);
    }
  }
  FEWNER_CHECK(false, "unreachable");
  return Tensor();
}

Tensor PretrainedLmEncoder::LmLoss(const EncodedSentence& sentence) const {
  const int64_t length = sentence.length();
  FEWNER_CHECK(length >= 2, "LM loss needs at least two tokens");
  switch (kind_) {
    case LmKind::kGpt2:
    case LmKind::kXlnet: {
      // Next-token loss; XLNet averages it with its reverse stream's.
      Tensor f = TransformerFeatures(sentence.word_ids, false);
      Tensor next_ctx = tensor::Slice(f, 0, 0, length - 1);
      std::vector<int64_t> next(sentence.word_ids.begin() + 1,
                                sentence.word_ids.end());
      Tensor loss_f = CrossEntropy(vocab_head_->Forward(next_ctx), next, nullptr);
      if (kind_ == LmKind::kGpt2) return loss_f;
      Tensor r = TransformerFeatures(sentence.word_ids, true);
      Tensor prev_ctx = tensor::Slice(r, 0, 1, length - 1);
      std::vector<int64_t> prev(sentence.word_ids.begin(),
                                sentence.word_ids.end() - 1);
      Tensor loss_r = CrossEntropy(vocab_head_->Forward(prev_ctx), prev, nullptr);
      return tensor::MulScalar(tensor::Add(loss_f, loss_r), 0.5f);
    }
    case LmKind::kBert: {
      // Mask ~15% of tokens (at least one) and predict them bidirectionally.
      std::vector<bool> masked(static_cast<size_t>(length), false);
      int64_t count = 0;
      for (int64_t t = 0; t < length; ++t) {
        if (mask_rng_.Bernoulli(0.15)) {
          masked[static_cast<size_t>(t)] = true;
          ++count;
        }
      }
      if (count == 0) {
        masked[mask_rng_.UniformInt(static_cast<uint64_t>(length))] = true;
      }
      std::vector<int64_t> positions(static_cast<size_t>(length));
      for (int64_t i = 0; i < length; ++i) positions[static_cast<size_t>(i)] = i;
      Tensor embedded = word_embedding_->Forward(sentence.word_ids);
      std::vector<float> keep(static_cast<size_t>(length), 1.0f);
      std::vector<float> use_mask(static_cast<size_t>(length), 0.0f);
      for (int64_t t = 0; t < length; ++t) {
        if (masked[static_cast<size_t>(t)]) {
          keep[static_cast<size_t>(t)] = 0.0f;
          use_mask[static_cast<size_t>(t)] = 1.0f;
        }
      }
      Tensor keep_col = Tensor::FromData(Shape{length, 1}, std::move(keep));
      Tensor mask_col = Tensor::FromData(Shape{length, 1}, std::move(use_mask));
      Tensor x = tensor::Add(
          tensor::Add(tensor::Mul(embedded, keep_col),
                      tensor::Mul(tensor::BroadcastTo(mask_embedding_,
                                                      Shape{length,
                                                            config_.model_dim}),
                                  mask_col)),
          position_embedding_->Forward(positions));
      for (const auto& block : blocks_) x = block->Forward(x);
      return CrossEntropy(vocab_head_->Forward(x), sentence.word_ids, &masked);
    }
    case LmKind::kElmo: {
      Tensor embedded = word_embedding_->Forward(sentence.word_ids);
      Tensor fwd = GruStates(*forward_gru_, embedded, false);
      Tensor bwd = GruStates(*backward_gru_, embedded, true);
      std::vector<int64_t> next(sentence.word_ids.begin() + 1,
                                sentence.word_ids.end());
      std::vector<int64_t> prev(sentence.word_ids.begin(),
                                sentence.word_ids.end() - 1);
      Tensor loss_f = CrossEntropy(
          vocab_head_->Forward(tensor::Slice(fwd, 0, 0, length - 1)), next, nullptr);
      Tensor loss_b = CrossEntropy(
          vocab_head_->Forward(tensor::Slice(bwd, 0, 1, length - 1)), prev, nullptr);
      return tensor::MulScalar(tensor::Add(loss_f, loss_b), 0.5f);
    }
    case LmKind::kFlair: {
      std::vector<int64_t> stream;
      for (const auto& chars : sentence.char_ids) {
        stream.insert(stream.end(), chars.begin(), chars.end());
        stream.push_back(text::kPadId);
      }
      const int64_t t_len = static_cast<int64_t>(stream.size());
      FEWNER_CHECK(t_len >= 2, "Flair LM loss needs two characters");
      Tensor embedded = char_embedding_->Forward(stream);
      Tensor fwd = GruStates(*char_forward_gru_, embedded, false);
      std::vector<int64_t> next(stream.begin() + 1, stream.end());
      return CrossEntropy(
          char_head_->Forward(tensor::Slice(fwd, 0, 0, t_len - 1)), next, nullptr);
    }
  }
  FEWNER_CHECK(false, "unreachable");
  return Tensor();
}

void PretrainedLmEncoder::Pretrain(const std::vector<EncodedSentence>& sentences,
                                   int64_t steps, float lr, util::Rng* rng) {
  FEWNER_CHECK(!sentences.empty(), "Pretrain on empty corpus");
  SetTraining(true);
  nn::Adam optimizer(Parameters(), lr);
  for (int64_t step = 0; step < steps; ++step) {
    const EncodedSentence& sentence = sentences[rng->UniformInt(sentences.size())];
    if (sentence.length() < 2) continue;
    Tensor loss = LmLoss(sentence);
    std::vector<Tensor> params = nn::ParameterTensors(this);
    std::vector<Tensor> grads = tensor::autodiff::Grad(loss, params);
    nn::ClipGradNorm(&grads, 5.0f);
    optimizer.Step(grads);
  }
  SetTraining(false);  // frozen from here on
}

}  // namespace fewner::models
