#include "ir/program.h"

#include <stdexcept>

namespace predtop::ir {

StageProgram::StageProgram() : body_(std::make_shared<Body>()) {}

StageProgram::Body& StageProgram::MutableBody() {
  // Only this program holds a body whose use count is 1: another holder
  // would count too, and it can only copy the body while holding it.
  if (body_.use_count() != 1) body_ = std::make_shared<Body>(*body_);
  return *body_;
}

ValueId StageProgram::AddInput(TensorSpec spec) {
  Body& body = MutableBody();
  body.values.push_back({std::move(spec), ValueKind::kInput, -1});
  return static_cast<ValueId>(body.values.size() - 1);
}

ValueId StageProgram::AddLiteral(TensorSpec spec) {
  Body& body = MutableBody();
  body.values.push_back({std::move(spec), ValueKind::kLiteral, -1});
  return static_cast<ValueId>(body.values.size() - 1);
}

ValueId StageProgram::AddEquation(OpType op, std::vector<ValueId> operands, TensorSpec result,
                                  std::int64_t contraction_dim) {
  for (const ValueId v : operands) {
    if (v < 0 || v >= NumValues()) {
      throw std::out_of_range("StageProgram::AddEquation: operand id out of range");
    }
  }
  Body& body = MutableBody();
  body.values.push_back({std::move(result), ValueKind::kEquationResult,
                         static_cast<std::int32_t>(body.equations.size())});
  const auto result_id = static_cast<ValueId>(body.values.size() - 1);
  body.equations.push_back({op, std::move(operands), result_id, contraction_dim});
  return result_id;
}

void StageProgram::MarkOutput(ValueId id) {
  if (id < 0 || id >= NumValues()) {
    throw std::out_of_range("StageProgram::MarkOutput: id out of range");
  }
  MutableBody().outputs.push_back(id);
}

std::int64_t StageProgram::LiteralBytes() const noexcept {
  std::int64_t total = 0;
  for (const Value& v : body_->values) {
    if (v.kind == ValueKind::kLiteral) total += v.spec.Bytes();
  }
  return total;
}

bool StageProgram::SameComputation(const StageProgram& other) const noexcept {
  return body_ == other.body_ ||
         (body_->values == other.body_->values && body_->equations == other.body_->equations &&
          body_->outputs == other.body_->outputs);
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
