#include "ir/models.h"

#include <sstream>
#include <stdexcept>

#include "ir/builder_common.h"

namespace predtop::ir {

namespace {

void ValidateSlice(StageSlice slice, std::int64_t num_layers) {
  if (slice.first_layer < 0 || slice.last_layer > num_layers ||
      slice.first_layer >= slice.last_layer) {
    throw std::invalid_argument("StageSlice: invalid layer range");
  }
}

/// Embedding prologue: token gather + positional add, with a convert node
/// (f32 master embedding cast to the compute dtype) for pruning to remove.
ValueId EmbeddingPrologue(GraphBuilder& gb, std::int64_t b, std::int64_t s, std::int64_t h,
                          std::int64_t vocab) {
  auto& p = gb.program();
  const ValueId tokens = p.AddInput({DType::kI32, {b, s}});
  const ValueId table = p.AddLiteral({DType::kF32, {vocab, h}});
  const ValueId gathered = p.AddEquation(OpType::kGather, {table, tokens}, {DType::kF32, {b, s, h}});
  const ValueId casted = gb.Convert(gathered, gb.dtype());
  const ValueId pos = p.AddLiteral({gb.dtype(), {s, h}});
  return p.AddEquation(OpType::kAdd, {casted, pos}, {gb.dtype(), {b, s, h}});
}

/// LM-head epilogue: final norm, vocabulary projection, fused softmax +
/// cross-entropy against the labels.
ValueId LmHeadEpilogue(GraphBuilder& gb, ValueId x, std::int64_t b, std::int64_t s,
                       std::int64_t h, std::int64_t vocab) {
  auto& p = gb.program();
  const ValueId normed = gb.LayerNorm(x, b, s, h);
  const ValueId proj = p.AddLiteral({gb.dtype(), {h, vocab}});
  const ValueId logits =
      p.AddEquation(OpType::kDot, {normed, proj}, {gb.dtype(), {b, s, vocab}}, h);
  const ValueId labels = p.AddInput({DType::kI32, {b, s}});
  const ValueId logits32 = gb.Convert(logits, DType::kF32);
  return p.AddEquation(OpType::kSoftmaxXent, {logits32, labels}, {DType::kF32, {b, s}});
}

/// Multi-head self-attention block (pre-LN) shared by both models.
ValueId AttentionBlock(GraphBuilder& gb, ValueId x, std::int64_t b, std::int64_t s,
                       std::int64_t h, std::int64_t heads) {
  auto& p = gb.program();
  const std::int64_t dh = h / heads;
  const ValueId normed = gb.LayerNorm(x, b, s, h);
  const ValueId q = gb.Linear(normed, b, s, h, h);
  const ValueId k = gb.Linear(normed, b, s, h, h);
  const ValueId v = gb.Linear(normed, b, s, h, h);
  const ValueId qh = gb.Reshape(q, {b, heads, s, dh});
  const ValueId kh = gb.Reshape(k, {b, heads, s, dh});
  const ValueId vh = gb.Reshape(v, {b, heads, s, dh});
  const ValueId scores =
      p.AddEquation(OpType::kBatchedDot, {qh, kh}, {gb.dtype(), {b, heads, s, s}}, dh);
  const ValueId scale = p.AddLiteral({gb.dtype(), {}});
  const ValueId scaled =
      p.AddEquation(OpType::kMul, {scores, scale}, {gb.dtype(), {b, heads, s, s}});
  const ValueId probs = gb.Softmax(scaled);
  const ValueId context =
      p.AddEquation(OpType::kBatchedDot, {probs, vh}, {gb.dtype(), {b, heads, s, dh}}, s);
  const ValueId merged = gb.Reshape(context, {b, s, h});
  const ValueId out = gb.Linear(merged, b, s, h, h);
  return gb.Residual(x, out);
}

/// Dense feed-forward block (pre-LN).
ValueId DenseFfnBlock(GraphBuilder& gb, ValueId x, std::int64_t b, std::int64_t s,
                      std::int64_t h, std::int64_t ffn_hidden) {
  const ValueId normed = gb.LayerNorm(x, b, s, h);
  const ValueId up = gb.Linear(normed, b, s, h, ffn_hidden);
  const ValueId act = gb.Gelu(up);
  const ValueId down = gb.Linear(act, b, s, ffn_hidden, h);
  return gb.Residual(x, down);
}

/// GShard-style MoE feed-forward: gate softmax + top-k routing, dispatch to
/// experts, per-expert FFN, weighted combine.
ValueId MoeFfnBlock(GraphBuilder& gb, ValueId x, const MoeConfig& cfg, std::int64_t b,
                    std::int64_t s) {
  auto& p = gb.program();
  const std::int64_t h = cfg.hidden;
  const std::int64_t e = cfg.num_experts;
  const std::int64_t capacity = (b * s * cfg.capacity_factor_x100) / (100 * e);
  const ValueId normed = gb.LayerNorm(x, b, s, h);
  // Gating network.
  const ValueId gate_w = p.AddLiteral({gb.dtype(), {h, e}});
  const ValueId gate_logits =
      p.AddEquation(OpType::kDot, {normed, gate_w}, {gb.dtype(), {b, s, e}}, h);
  const ValueId gate_probs = gb.Softmax(gate_logits);
  const ValueId top = p.AddEquation(OpType::kTopK, {gate_probs}, {gb.dtype(), {b, s, 2}});
  const ValueId mask = p.AddEquation(OpType::kOneHot, {top}, {gb.dtype(), {b, s, e}});
  // Dispatch tokens to expert buffers.
  const ValueId dispatch =
      p.AddEquation(OpType::kBatchedDot, {mask, normed}, {gb.dtype(), {e, capacity, h}}, b * s);
  // Per-expert FFN (weights stacked across experts).
  const ValueId w_up = p.AddLiteral({gb.dtype(), {e, h, cfg.expert_hidden}});
  const ValueId up = p.AddEquation(OpType::kBatchedDot, {dispatch, w_up},
                                   {gb.dtype(), {e, capacity, cfg.expert_hidden}}, h);
  const ValueId act = gb.Gelu(up);
  const ValueId w_down = p.AddLiteral({gb.dtype(), {e, cfg.expert_hidden, h}});
  const ValueId down = p.AddEquation(OpType::kBatchedDot, {act, w_down},
                                     {gb.dtype(), {e, capacity, h}}, cfg.expert_hidden);
  // Combine expert outputs back to token order, weighted by gate scores.
  const ValueId combined =
      p.AddEquation(OpType::kBatchedDot, {mask, down}, {gb.dtype(), {b, s, h}}, e * capacity);
  const ValueId weighted = p.AddEquation(OpType::kMul, {combined, gate_probs},
                                         {gb.dtype(), {b, s, h}});
  return gb.Residual(x, weighted);
}

}  // namespace

StageProgram BuildGpt3Stage(const Gpt3Config& config, StageSlice slice) {
  ValidateSlice(slice, config.num_layers);
  StageProgram program;
  program.name = StageName("gpt3", slice, static_cast<std::int32_t>(config.num_layers));
  program.first_layer = slice.first_layer;
  program.last_layer = slice.last_layer;
  program.has_embedding = slice.first_layer == 0;
  program.has_lm_head = slice.last_layer == config.num_layers;
  program.microbatch = config.microbatch;

  GraphBuilder gb(program);
  const std::int64_t b = config.microbatch, s = config.seq_len, h = config.hidden;
  ValueId x = program.has_embedding
                  ? EmbeddingPrologue(gb, b, s, h, config.vocab)
                  : program.AddInput({gb.dtype(), {b, s, h}});
  for (std::int32_t layer = slice.first_layer; layer < slice.last_layer; ++layer) {
    x = AttentionBlock(gb, x, b, s, h, config.num_heads);
    x = DenseFfnBlock(gb, x, b, s, h, config.ffn_mult * h);
  }
  if (program.has_lm_head) {
    x = LmHeadEpilogue(gb, x, b, s, h, config.vocab);
  }
  program.MarkOutput(x);
  return program;
}

StageProgram BuildMoeStage(const MoeConfig& config, StageSlice slice) {
  ValidateSlice(slice, config.num_layers);
  StageProgram program;
  program.name = StageName("moe", slice, static_cast<std::int32_t>(config.num_layers));
  program.first_layer = slice.first_layer;
  program.last_layer = slice.last_layer;
  program.has_embedding = slice.first_layer == 0;
  program.has_lm_head = slice.last_layer == config.num_layers;
  program.microbatch = config.microbatch;

  GraphBuilder gb(program);
  const std::int64_t b = config.microbatch, s = config.seq_len, h = config.hidden;
  ValueId x = program.has_embedding
                  ? EmbeddingPrologue(gb, b, s, h, config.vocab)
                  : program.AddInput({gb.dtype(), {b, s, h}});
  for (std::int32_t layer = slice.first_layer; layer < slice.last_layer; ++layer) {
    x = AttentionBlock(gb, x, b, s, h, config.num_heads);
    // GShard alternates dense and MoE feed-forward layers.
    if (layer % 2 == 1) {
      x = MoeFfnBlock(gb, x, config, b, s);
    } else {
      x = DenseFfnBlock(gb, x, b, s, h, 4 * h);
    }
  }
  if (program.has_lm_head) {
    x = LmHeadEpilogue(gb, x, b, s, h, config.vocab);
  }
  program.MarkOutput(x);
  return program;
}

std::vector<std::int32_t> LayerKinds(const Gpt3Config& config) {
  return std::vector<std::int32_t>(static_cast<std::size_t>(config.num_layers), 0);
}

std::vector<std::int32_t> LayerKinds(const MoeConfig& config) {
  std::vector<std::int32_t> kinds(static_cast<std::size_t>(config.num_layers));
  for (std::size_t layer = 0; layer < kinds.size(); ++layer) {
    kinds[layer] = static_cast<std::int32_t>(layer % 2);  // BuildMoeStage's parity
  }
  return kinds;
}

std::string StageName(const std::string& model, StageSlice slice, std::int32_t num_layers) {
  std::ostringstream os;
  os << model << '[' << slice.first_layer << ',' << slice.last_layer << ')';
  if (slice.first_layer == 0) os << "+embed";
  if (slice.last_layer == num_layers) os << "+head";
  return os.str();
}

StageProgram RelabelStage(const StageProgram& program, StageSlice slice,
                          std::int32_t num_layers) {
  StageProgram out = program;
  out.name = StageName(program.name.substr(0, program.name.find('[')), slice, num_layers);
  out.first_layer = slice.first_layer;
  out.last_layer = slice.last_layer;
  out.has_embedding = slice.first_layer == 0;
  out.has_lm_head = slice.last_layer == num_layers;
  return out;
}

}  // namespace predtop::ir
