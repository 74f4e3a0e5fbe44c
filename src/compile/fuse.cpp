#include "compile/fuse.h"

#include <algorithm>
#include <vector>

namespace predtop::compile {

namespace {

/// Steps reading value v (as a or b). Defining writes (out) with
/// out == a count as reads too, which is what in-place ops are.
[[nodiscard]] std::vector<std::size_t> ReadersOf(const std::vector<Step>& steps, ValueId v) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (s.a == v || s.b == v) out.push_back(i);
  }
  return out;
}

void Erase(std::vector<Step>& steps, const std::vector<std::size_t>& sorted_indices) {
  for (auto it = sorted_indices.rbegin(); it != sorted_indices.rend(); ++it) {
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(*it));
  }
}

/// Pattern 1: Linear -> in-place residual Add -> LayerNorm.
void FuseResidualNorm(std::vector<Step>& steps) {
  for (std::size_t i = 2; i < steps.size(); ++i) {
    Step& ln = steps[i];
    if (ln.kind != OpKind::kLayerNorm) continue;
    const Step& add = steps[i - 1];
    const Step& lin = steps[i - 2];
    if (add.kind != OpKind::kAdd || add.out != ln.a) continue;
    if (lin.kind != OpKind::kLinear || lin.out != ln.a) continue;
    if (ReadersOf(steps, ln.a) != std::vector<std::size_t>{i - 1, i}) continue;

    ln.kind = OpKind::kLinearResidualNorm;
    ln.linear = lin.linear;
    ln.a = lin.a;      // GEMM input
    ln.b = add.b;      // residual
    Erase(steps, {i - 2, i - 1});
    i -= 2;
  }
}

/// Pattern 2: Linear -> in-place activation.
void FuseLinearAct(std::vector<Step>& steps) {
  for (std::size_t i = 1; i < steps.size(); ++i) {
    const Step& act = steps[i];
    if (act.kind != OpKind::kRelu) continue;
    Step& lin = steps[i - 1];
    if (lin.kind != OpKind::kLinear || lin.out != act.out) continue;
    // The activated value may have any number of later readers; only the
    // *pre-activation* value must be unobserved, and it is: the in-place
    // Relu is its sole possible reader before this step rewrites it.
    if (ReadersOf(steps, act.out).front() != i) continue;

    lin.kind = OpKind::kLinearAct;
    lin.act = tensor::fused::Act::kRelu;
    Erase(steps, {i});
    --i;
  }
}

}  // namespace

void FusePatterns(InferProgram& p) {
  FuseResidualNorm(p.steps);
  FuseLinearAct(p.steps);
}

}  // namespace predtop::compile
