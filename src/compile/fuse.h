#pragma once
// Fusion pass over a recorded (unfused) InferProgram. Patterns, in order:
//
//  1. residual norm     [Linear -> y, Add(y, r), LayerNorm(y)]
//                                              -> kLinearResidualNorm
//  2. activation        [Linear -> y, Relu(y)] -> kLinearAct
//
// Each match is validated with value use counts (the fused intermediate must
// have no other reader), so a pattern that merely *looks* adjacent is never
// fused incorrectly. Matching is intentionally conservative: a miss leaves
// the unfused steps in place, which stays correct — the executor runs them
// as recorded. Attention needs no pattern: ProgramBuilder::Attention records
// it as one kFusedAttention step.

#include "compile/program.h"

namespace predtop::compile {

/// Rewrites `p.steps` in place.
void FusePatterns(InferProgram& p);

}  // namespace predtop::compile
