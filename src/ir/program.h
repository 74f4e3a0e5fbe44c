#pragma once
// StageProgram: the computation of one candidate pipeline stage as a list of
// tensor-level equations in SSA form (each equation defines one value).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/types.h"

namespace predtop::ir {

using ValueId = std::int32_t;

enum class ValueKind : std::uint8_t { kInput = 0, kLiteral = 1, kEquationResult = 2 };

struct Value {
  TensorSpec spec;
  ValueKind kind = ValueKind::kEquationResult;
  /// Index into equations() for kEquationResult values; -1 otherwise.
  std::int32_t defining_equation = -1;

  bool operator==(const Value&) const = default;
};

struct Equation {
  OpType op = OpType::kNone;
  std::vector<ValueId> operands;
  ValueId result = -1;
  /// Contraction size for dot-like ops (the K dimension); 0 otherwise.
  std::int64_t contraction_dim = 0;

  bool operator==(const Equation&) const = default;
};

class StageProgram {
 public:
  /// Activation tensors arriving from the previous stage / data loader.
  ValueId AddInput(TensorSpec spec);
  /// Weights and constants resident on the stage's mesh.
  ValueId AddLiteral(TensorSpec spec);
  /// Append an equation; returns the id of its result value. For dot-like
  /// ops pass the contraction (K) dimension so FLOP accounting is exact.
  ValueId AddEquation(OpType op, std::vector<ValueId> operands, TensorSpec result,
                      std::int64_t contraction_dim = 0);
  /// Mark a value as a stage output (activation handed to the next stage).
  void MarkOutput(ValueId id);

  [[nodiscard]] const std::vector<Value>& values() const noexcept { return values_; }
  [[nodiscard]] const std::vector<Equation>& equations() const noexcept { return equations_; }
  [[nodiscard]] std::span<const ValueId> outputs() const noexcept { return outputs_; }
  [[nodiscard]] const Value& value(ValueId id) const { return values_[static_cast<std::size_t>(id)]; }

  [[nodiscard]] std::int64_t NumValues() const noexcept {
    return static_cast<std::int64_t>(values_.size());
  }
  [[nodiscard]] std::int64_t NumEquations() const noexcept {
    return static_cast<std::int64_t>(equations_.size());
  }

  /// Total bytes of literal (weight) values — the stage's parameter memory.
  [[nodiscard]] std::int64_t LiteralBytes() const noexcept;

  /// Exact computation identity: true iff values, equations and outputs are
  /// equal. The descriptive metadata below (name, layer range, has_* flags,
  /// microbatch) is ignored, so two slices of a model that compute the same
  /// thing compare equal. ir::BuildOpDag reads nothing but these three
  /// fields, so equal programs encode to the same bytes; if it ever reads
  /// more, the identity must grow with it.
  [[nodiscard]] bool SameComputation(const StageProgram& other) const noexcept;
  /// Hash of exactly the fields SameComputation compares: equal programs
  /// hash equal; unequal ones may collide, so confirm with SameComputation.
  [[nodiscard]] std::uint64_t ComputationHash() const noexcept;

  std::string name;
  /// Descriptive metadata (used by samplers / reports).
  std::int32_t first_layer = 0;
  std::int32_t last_layer = 0;  // exclusive
  bool has_embedding = false;
  bool has_lm_head = false;
  std::int64_t microbatch = 0;

 private:
  std::vector<Value> values_;
  std::vector<Equation> equations_;
  std::vector<ValueId> outputs_;
};

/// FLOPs of one equation (forward pass; multiply-adds count as 2).
[[nodiscard]] std::int64_t EquationFlops(const StageProgram& program, const Equation& eqn);
/// Bytes moved by one equation (operands read + result written).
[[nodiscard]] std::int64_t EquationBytes(const StageProgram& program, const Equation& eqn);
/// Sum of EquationFlops over the program.
[[nodiscard]] std::int64_t TotalFlops(const StageProgram& program);

}  // namespace predtop::ir
