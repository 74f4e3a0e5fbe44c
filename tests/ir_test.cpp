// Tests for the tensor-level IR: types, program construction, FLOP/byte
// accounting, the GPT-3 / MoE stage builders, DAG conversion and stage
// enumeration/sampling.

#include <gtest/gtest.h>

#include <set>

#include "ir/models.h"
#include "ir/program.h"
#include "ir/stages.h"
#include "ir/to_dag.h"
#include "ir/types.h"

namespace predtop::ir {
namespace {

TEST(Types, DTypeBytes) {
  EXPECT_EQ(DTypeBytes(DType::kF32), 4);
  EXPECT_EQ(DTypeBytes(DType::kF16), 2);
  EXPECT_EQ(DTypeBytes(DType::kBF16), 2);
  EXPECT_EQ(DTypeBytes(DType::kI32), 4);
  EXPECT_EQ(DTypeBytes(DType::kBool), 1);
}

TEST(Types, NamesAreUnique) {
  std::set<std::string> names;
  for (std::int32_t i = 0; i < kNumOpTypes; ++i) {
    names.insert(OpTypeName(static_cast<OpType>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumOpTypes));
}

TEST(Types, PrunableOpsArePaperSection4B4) {
  EXPECT_TRUE(IsPrunableOp(OpType::kReshape));
  EXPECT_TRUE(IsPrunableOp(OpType::kConvert));
  EXPECT_TRUE(IsPrunableOp(OpType::kBroadcast));
  EXPECT_FALSE(IsPrunableOp(OpType::kDot));
  EXPECT_FALSE(IsPrunableOp(OpType::kAdd));
}

TEST(TensorSpec, ElementAndByteCounts) {
  const TensorSpec spec{DType::kF16, {8, 1024, 2048}};
  EXPECT_EQ(spec.NumElements(), 8 * 1024 * 2048);
  EXPECT_EQ(spec.Bytes(), spec.NumElements() * 2);
  EXPECT_EQ(spec.ToString(), "f16[8,1024,2048]");
  const TensorSpec scalar{DType::kF32, {}};
  EXPECT_EQ(scalar.NumElements(), 1);
}

TEST(StageProgram, SsaConstruction) {
  StageProgram p;
  const ValueId x = p.AddInput({DType::kF32, {2, 3}});
  const ValueId w = p.AddLiteral({DType::kF32, {3, 4}});
  const ValueId y = p.AddEquation(OpType::kDot, {x, w}, {DType::kF32, {2, 4}}, 3);
  p.MarkOutput(y);
  EXPECT_EQ(p.NumValues(), 3);
  EXPECT_EQ(p.NumEquations(), 1);
  EXPECT_EQ(p.value(y).kind, ValueKind::kEquationResult);
  EXPECT_EQ(p.value(y).defining_equation, 0);
  EXPECT_EQ(p.outputs().size(), 1u);
  EXPECT_EQ(p.LiteralBytes(), 3 * 4 * 4);
}

TEST(StageProgram, RejectsBadOperands) {
  StageProgram p;
  EXPECT_THROW(p.AddEquation(OpType::kAdd, {5}, {DType::kF32, {1}}), std::out_of_range);
  EXPECT_THROW(p.MarkOutput(9), std::out_of_range);
}

TEST(Flops, DotAccountsMultiplyAdd) {
  StageProgram p;
  const ValueId x = p.AddInput({DType::kF16, {4, 8}});
  const ValueId w = p.AddLiteral({DType::kF16, {8, 16}});
  const ValueId y = p.AddEquation(OpType::kDot, {x, w}, {DType::kF16, {4, 16}}, 8);
  (void)y;
  const Equation& eqn = p.equations()[0];
  EXPECT_EQ(EquationFlops(p, eqn), 2 * 4 * 16 * 8);
  EXPECT_EQ(EquationBytes(p, eqn), (4 * 8 + 8 * 16 + 4 * 16) * 2);
}

TEST(Flops, MovementOpsAreZeroFlops) {
  StageProgram p;
  const ValueId x = p.AddInput({DType::kF16, {4, 8}});
  p.AddEquation(OpType::kReshape, {x}, {DType::kF16, {32}});
  EXPECT_EQ(EquationFlops(p, p.equations()[0]), 0);
  EXPECT_GT(EquationBytes(p, p.equations()[0]), 0);
}

// ---- builders ----

/// A two-equation program with one knob per field the computation identity
/// compares.
struct TinySpec {
  std::int64_t rows = 2;
  DType dtype = DType::kF16;
  bool swap_operands = false;
  OpType activation = OpType::kGelu;
  std::int64_t contraction = 3;
  bool output_activation = true;
};

StageProgram Tiny(const TinySpec& t) {
  StageProgram p;
  const ValueId x = p.AddInput({t.dtype, {t.rows, 3}});
  const ValueId w = p.AddLiteral({DType::kF16, {3, 4}});
  const std::vector<ValueId> operands =
      t.swap_operands ? std::vector<ValueId>{w, x} : std::vector<ValueId>{x, w};
  const ValueId y = p.AddEquation(OpType::kDot, operands, {DType::kF16, {2, 4}}, t.contraction);
  const ValueId z = p.AddEquation(t.activation, {y}, {DType::kF16, {2, 4}});
  p.MarkOutput(t.output_activation ? z : y);
  return p;
}

TEST(StageProgram, ComputationIdentityIgnoresNameAndLayerRange) {
  StageProgram a = Tiny({});
  StageProgram b = Tiny({});
  b.name = "gpt3[5:9]";
  b.first_layer = 5;
  b.last_layer = 9;
  b.has_embedding = true;
  b.has_lm_head = true;
  b.microbatch = 16;
  EXPECT_TRUE(a.SameComputation(b));
  EXPECT_EQ(a.ComputationHash(), b.ComputationHash());

  // Two middle GPT-3 slices of one span compute the same stage; a slice
  // holding the embedding does not.
  const Gpt3Config config;
  const StageProgram mid = BuildGpt3Stage(config, {4, 8});
  const StageProgram shifted = BuildGpt3Stage(config, {9, 13});
  EXPECT_NE(mid.name, shifted.name);
  EXPECT_TRUE(mid.SameComputation(shifted));
  EXPECT_EQ(mid.ComputationHash(), shifted.ComputationHash());
  EXPECT_FALSE(mid.SameComputation(BuildGpt3Stage(config, {0, 4})));
  EXPECT_FALSE(mid.SameComputation(BuildGpt3Stage(config, {4, 9})));
}

TEST(StageProgram, ComputationIdentitySeesEveryComputedField) {
  const StageProgram base = Tiny({});
  const std::vector<std::pair<std::string, TinySpec>> changes = {
      {"one dim", {.rows = 5}},
      {"a dtype", {.dtype = DType::kF32}},
      {"an operand", {.swap_operands = true}},
      {"an op", {.activation = OpType::kTanh}},
      {"contraction_dim", {.contraction = 7}},
      {"an output", {.output_activation = false}},
  };
  for (const auto& [what, spec] : changes) {
    const StageProgram changed = Tiny(spec);
    EXPECT_FALSE(base.SameComputation(changed)) << what;
    EXPECT_FALSE(changed.SameComputation(base)) << what;
    EXPECT_NE(base.ComputationHash(), changed.ComputationHash()) << what;
  }
}

TEST(Gpt3Builder, MiddleStageStructure) {
  Gpt3Config config;
  const StageProgram stage = BuildGpt3Stage(config, {4, 8});
  EXPECT_FALSE(stage.has_embedding);
  EXPECT_FALSE(stage.has_lm_head);
  EXPECT_EQ(stage.first_layer, 4);
  EXPECT_EQ(stage.last_layer, 8);
  EXPECT_GT(stage.NumEquations(), 4 * 25);  // ~35+ tensor ops per layer
  EXPECT_EQ(stage.outputs().size(), 1u);
  // Parameters: 4 layers x ~12 h^2 (attention 4h^2 + FFN 8h^2) in f16.
  const double h = static_cast<double>(config.hidden);
  const double expected = 4 * 12.0 * h * h * 2.0;
  EXPECT_NEAR(static_cast<double>(stage.LiteralBytes()), expected, 0.05 * expected);
}

TEST(Gpt3Builder, BoundaryStagesGetPrologueEpilogue) {
  Gpt3Config config;
  const StageProgram first = BuildGpt3Stage(config, {0, 2});
  EXPECT_TRUE(first.has_embedding);
  EXPECT_FALSE(first.has_lm_head);
  const StageProgram last =
      BuildGpt3Stage(config, {22, static_cast<std::int32_t>(config.num_layers)});
  EXPECT_TRUE(last.has_lm_head);
  // Embedding table dominates the first stage's literal bytes.
  EXPECT_GT(first.LiteralBytes(), config.vocab * config.hidden * 4);
}

TEST(Gpt3Builder, FlopsScaleWithSpan) {
  Gpt3Config config;
  const auto f2 = TotalFlops(BuildGpt3Stage(config, {4, 6}));
  const auto f4 = TotalFlops(BuildGpt3Stage(config, {4, 8}));
  EXPECT_NEAR(static_cast<double>(f4) / static_cast<double>(f2), 2.0, 0.05);
}

TEST(Gpt3Builder, RejectsInvalidSlices) {
  Gpt3Config config;
  EXPECT_THROW(BuildGpt3Stage(config, {3, 3}), std::invalid_argument);
  EXPECT_THROW(BuildGpt3Stage(config, {-1, 3}), std::invalid_argument);
  EXPECT_THROW(BuildGpt3Stage(config, {0, 25}), std::invalid_argument);
}

TEST(MoeBuilder, HasExpertRoutingOps) {
  MoeConfig config;
  const StageProgram stage = BuildMoeStage(config, {0, 4});
  bool has_topk = false, has_onehot = false;
  for (const Equation& eqn : stage.equations()) {
    has_topk = has_topk || eqn.op == OpType::kTopK;
    has_onehot = has_onehot || eqn.op == OpType::kOneHot;
  }
  EXPECT_TRUE(has_topk);
  EXPECT_TRUE(has_onehot);
}

TEST(MoeBuilder, MoeStagesAreLargerThanDenseGpt3PerLayer) {
  // Paper §VIII-A: "MoE stages typically involve larger graphs".
  Gpt3Config gpt;
  MoeConfig moe;
  const auto gpt_eqns = BuildGpt3Stage(gpt, {2, 6}).NumEquations();
  const auto moe_eqns = BuildMoeStage(moe, {2, 6}).NumEquations();
  EXPECT_GT(moe_eqns, gpt_eqns);
}

TEST(MoeBuilder, AlternatesDenseAndMoeLayers) {
  MoeConfig config;
  // A slice with only even layers (dense FFN) has no top_k ops.
  const StageProgram dense_only = BuildMoeStage(config, {2, 3});
  bool has_topk = false;
  for (const Equation& eqn : dense_only.equations()) {
    has_topk = has_topk || eqn.op == OpType::kTopK;
  }
  EXPECT_FALSE(has_topk);
  const StageProgram moe_layer = BuildMoeStage(config, {3, 4});
  has_topk = false;
  for (const Equation& eqn : moe_layer.equations()) {
    has_topk = has_topk || eqn.op == OpType::kTopK;
  }
  EXPECT_TRUE(has_topk);
}

TEST(StageNameFormat, EncodesBoundaries) {
  EXPECT_EQ(StageName("gpt3", {0, 4}, 24), "gpt3[0,4)+embed");
  EXPECT_EQ(StageName("gpt3", {20, 24}, 24), "gpt3[20,24)+head");
  EXPECT_EQ(StageName("moe", {4, 8}, 32), "moe[4,8)");
}

// ---- DAG conversion ----

TEST(ToDag, StructureMirrorsProgram) {
  StageProgram p;
  const ValueId x = p.AddInput({DType::kF32, {2, 3}});
  const ValueId w = p.AddLiteral({DType::kF32, {3, 4}});
  const ValueId y = p.AddEquation(OpType::kDot, {x, w}, {DType::kF32, {2, 4}}, 3);
  p.MarkOutput(y);
  const graph::OpDag dag = BuildOpDag(p);
  // input + literal + 1 equation + 1 output marker.
  EXPECT_EQ(dag.NumNodes(), 4);
  EXPECT_EQ(dag.NumEdges(), 3);
  EXPECT_TRUE(dag.IsAcyclic());
  EXPECT_EQ(dag.Node(0).kind, graph::NodeKind::kInput);
  EXPECT_EQ(dag.Node(1).kind, graph::NodeKind::kLiteral);
  EXPECT_EQ(dag.Node(2).kind, graph::NodeKind::kOperator);
  EXPECT_EQ(dag.Node(2).op_type, static_cast<std::int32_t>(OpType::kDot));
  EXPECT_EQ(dag.Node(3).kind, graph::NodeKind::kOutput);
}

TEST(ToDag, DimsFoldIntoFeatureSlots) {
  StageProgram p;
  const ValueId x = p.AddInput({DType::kF16, {2, 3, 4, 5, 6}});  // rank 5
  (void)x;
  const graph::OpDag dag = BuildOpDag(p);
  const auto& dims = dag.Node(0).out_dims;
  EXPECT_EQ(dims[0] * dims[1] * dims[2] * dims[3], 2 * 3 * 4 * 5 * 6);
  EXPECT_EQ(dims[1], 4);
  EXPECT_EQ(dims[3], 6);
}

TEST(ToDag, PruningShrinksGpt3Graphs) {
  Gpt3Config config;
  const StageProgram stage = BuildGpt3Stage(config, {0, 2});
  const graph::OpDag raw = BuildOpDag(stage);
  const graph::OpDag pruned = BuildPrunedOpDag(stage);
  EXPECT_LT(pruned.NumNodes(), raw.NumNodes());
  EXPECT_TRUE(pruned.IsAcyclic());
  // No prunable ops survive.
  for (std::int32_t i = 0; i < pruned.NumNodes(); ++i) {
    const auto& node = pruned.Node(i);
    if (node.kind == graph::NodeKind::kOperator) {
      EXPECT_FALSE(IsPrunableOp(static_cast<OpType>(node.op_type)));
    }
  }
}

// ---- stage enumeration / sampling ----

TEST(Stages, EnumerationCounts) {
  EXPECT_EQ(EnumerateStageSlices(24).size(), 24u * 25u / 2u);
  EXPECT_EQ(EnumerateStageSlices(32).size(), 32u * 33u / 2u);
  // Span bound: n spans of 1, n-1 of 2, ... n-k+1 of k.
  EXPECT_EQ(EnumerateStageSlices(10, 3).size(), 10u + 9u + 8u);
}

TEST(Stages, SlicesAreValidAndUnique) {
  const auto all = EnumerateStageSlices(12);
  std::set<std::pair<int, int>> seen;
  for (const StageSlice s : all) {
    EXPECT_LT(s.first_layer, s.last_layer);
    EXPECT_LE(s.last_layer, 12);
    EXPECT_TRUE(seen.insert({s.first_layer, s.last_layer}).second);
  }
}

TEST(Stages, SamplingIsStratifiedBySpan) {
  util::Rng rng(1);
  const auto all = EnumerateStageSlices(16);
  const auto sample = SampleStageSlices(all, 32, rng);
  EXPECT_EQ(sample.size(), 32u);
  std::set<std::int32_t> spans;
  for (const StageSlice s : sample) spans.insert(s.NumLayers());
  // Round-robin over spans: at least 8 distinct sizes among 32 draws.
  EXPECT_GE(spans.size(), 8u);
}

TEST(Stages, SamplingMoreThanAvailableReturnsAll) {
  util::Rng rng(2);
  const auto all = EnumerateStageSlices(4);
  EXPECT_EQ(SampleStageSlices(all, 100, rng).size(), all.size());
}

}  // namespace
}  // namespace predtop::ir
