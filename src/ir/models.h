#pragma once
// Benchmark model builders (paper Tbl. IV): GPT-3 (1.3B configuration) and
// GShard MoE (alternating dense / mixture-of-experts layers). Each builder
// emits the forward tensor-level program of a contiguous stage — a layer
// range plus optional embedding prologue and LM-head epilogue — which is
// exactly what Alpa's inter-operator pass enumerates as pipeline-stage
// candidates.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"

namespace predtop::ir {

struct Gpt3Config {
  std::int64_t seq_len = 1024;
  std::int64_t hidden = 2048;
  std::int64_t num_layers = 24;
  std::int64_t num_heads = 32;
  std::int64_t vocab = 51200;
  std::int64_t ffn_mult = 4;
  std::int64_t microbatch = 8;  // per-microbatch rows fed through the stage
};

struct MoeConfig {
  std::int64_t seq_len = 1024;
  std::int64_t hidden = 768;
  std::int64_t num_layers = 32;
  std::int64_t num_heads = 16;
  std::int64_t vocab = 32000;
  std::int64_t num_experts = 16;
  std::int64_t expert_hidden = 2048;
  /// Expert capacity per microbatch (tokens routed to each expert).
  std::int64_t capacity_factor_x100 = 125;  // 1.25x even split
  std::int64_t microbatch = 8;
};

/// Stage identity inside a model: layers [first_layer, last_layer), with the
/// embedding prologue iff first_layer == 0 and the LM head iff last_layer ==
/// num_layers (Alpa's stage slicing convention).
struct StageSlice {
  std::int32_t first_layer = 0;
  std::int32_t last_layer = 0;  // exclusive

  [[nodiscard]] std::int32_t NumLayers() const noexcept { return last_layer - first_layer; }
  bool operator==(const StageSlice&) const = default;
};

[[nodiscard]] StageProgram BuildGpt3Stage(const Gpt3Config& config, StageSlice slice);
[[nodiscard]] StageProgram BuildMoeStage(const MoeConfig& config, StageSlice slice);

/// Computation kind of each layer, the builders' own statement of which
/// layers emit identical equations. Two slices with the same boundary roles
/// (embedding, LM head) whose layers have the same kinds, in order, build
/// programs that are StageProgram::SameComputation. Every GPT-3 layer is one
/// kind; MoE layers alternate dense (even) and expert (odd).
[[nodiscard]] std::vector<std::int32_t> LayerKinds(const Gpt3Config& config);
[[nodiscard]] std::vector<std::int32_t> LayerKinds(const MoeConfig& config);

/// Human-readable stage name, e.g. "gpt3[4,9)+head".
[[nodiscard]] std::string StageName(const std::string& model, StageSlice slice,
                                    std::int32_t num_layers);

/// The program of `slice` for a model of `num_layers` layers, computing what
/// `program` computes: shares its body and microbatch, with the slice's own
/// layer range, boundary flags and StageName (model prefix taken from
/// `program`'s name, which must be a StageName).
[[nodiscard]] StageProgram RelabelStage(const StageProgram& program, StageSlice slice,
                                        std::int32_t num_layers);

}  // namespace predtop::ir
