#include "ir/program.h"

#include <stdexcept>

namespace predtop::ir {

ValueId StageProgram::AddInput(TensorSpec spec) {
  values_.push_back({std::move(spec), ValueKind::kInput, -1});
  return static_cast<ValueId>(values_.size() - 1);
}

ValueId StageProgram::AddLiteral(TensorSpec spec) {
  values_.push_back({std::move(spec), ValueKind::kLiteral, -1});
  return static_cast<ValueId>(values_.size() - 1);
}

ValueId StageProgram::AddEquation(OpType op, std::vector<ValueId> operands, TensorSpec result,
                                  std::int64_t contraction_dim) {
  for (const ValueId v : operands) {
    if (v < 0 || v >= NumValues()) {
      throw std::out_of_range("StageProgram::AddEquation: operand id out of range");
    }
  }
  values_.push_back({std::move(result), ValueKind::kEquationResult,
                     static_cast<std::int32_t>(equations_.size())});
  const auto result_id = static_cast<ValueId>(values_.size() - 1);
  equations_.push_back({op, std::move(operands), result_id, contraction_dim});
  return result_id;
}

void StageProgram::MarkOutput(ValueId id) {
  if (id < 0 || id >= NumValues()) {
    throw std::out_of_range("StageProgram::MarkOutput: id out of range");
  }
  outputs_.push_back(id);
}

std::int64_t StageProgram::LiteralBytes() const noexcept {
  std::int64_t total = 0;
  for (const Value& v : values_) {
    if (v.kind == ValueKind::kLiteral) total += v.spec.Bytes();
  }
  return total;
}

bool StageProgram::SameComputation(const StageProgram& other) const noexcept {
  return values_ == other.values_ && equations_ == other.equations_ &&
         outputs_ == other.outputs_;
}

std::uint64_t StageProgram::ComputationHash() const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  };
  mix(values_.size());
  for (const Value& v : values_) {
    mix(static_cast<std::uint64_t>(v.spec.dtype));
    mix(v.spec.dims.size());
    for (const std::int64_t d : v.spec.dims) mix(static_cast<std::uint64_t>(d));
    mix(static_cast<std::uint64_t>(v.kind));
    mix(static_cast<std::uint64_t>(v.defining_equation));
  }
  mix(equations_.size());
  for (const Equation& e : equations_) {
    mix(static_cast<std::uint64_t>(e.op));
    mix(e.operands.size());
    for (const ValueId o : e.operands) mix(static_cast<std::uint64_t>(o));
    mix(static_cast<std::uint64_t>(e.result));
    mix(static_cast<std::uint64_t>(e.contraction_dim));
  }
  mix(outputs_.size());
  for (const ValueId o : outputs_) mix(static_cast<std::uint64_t>(o));
  return h;
}

std::int64_t EquationFlops(const StageProgram& program, const Equation& eqn) {
  const TensorSpec& result = program.value(eqn.result).spec;
  const std::int64_t out_elems = result.NumElements();
  switch (eqn.op) {
    case OpType::kDot:
    case OpType::kBatchedDot:
    case OpType::kConv2d:  // contraction_dim carries K*K*Cin
      // 2 * output elements * contraction size (multiply + add).
      return 2 * out_elems * std::max<std::int64_t>(1, eqn.contraction_dim);
    case OpType::kGelu:
    case OpType::kTanh:
    case OpType::kExp:
    case OpType::kRsqrt:
      return 8 * out_elems;  // transcendental cost factor
    case OpType::kSoftmaxXent:
      return 10 * out_elems;
    case OpType::kReduceSum:
    case OpType::kReduceMax: {
      std::int64_t in_elems = 0;
      for (const ValueId v : eqn.operands) in_elems += program.value(v).spec.NumElements();
      return in_elems;
    }
    case OpType::kAdd:
    case OpType::kSub:
    case OpType::kMul:
    case OpType::kDiv:
    case OpType::kMax:
    case OpType::kTopK:
    case OpType::kOneHot:
      return out_elems;
    case OpType::kTranspose:
    case OpType::kReshape:
    case OpType::kBroadcast:
    case OpType::kConvert:
    case OpType::kGather:
    case OpType::kNone:
      return 0;  // data movement only
  }
  return 0;
}

std::int64_t EquationBytes(const StageProgram& program, const Equation& eqn) {
  std::int64_t total = program.value(eqn.result).spec.Bytes();
  for (const ValueId v : eqn.operands) total += program.value(v).spec.Bytes();
  return total;
}

std::int64_t TotalFlops(const StageProgram& program) {
  std::int64_t total = 0;
  for (const Equation& eqn : program.equations()) total += EquationFlops(program, eqn);
  return total;
}

}  // namespace predtop::ir
