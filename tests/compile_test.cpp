// Tests for the compiled-inference subsystem (predtop::compile), the only
// inference engine: plan-vs-tape parity for every predictor (including
// degenerate graph shapes and widths that are not packed-panel multiples),
// typed rejection of malformed inputs, static-arena planner properties (no
// overlapping offsets for live-range-intersecting values, deterministic
// layouts), allocation-free warm forwards and batches, batch-executor bit
// parity, program-cache LRU bounds and owner eviction, and concurrent
// compiled forwards (run under TSan by ci/run.sh tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compile/batch.h"
#include "compile/cache.h"
#include "compile/planner.h"
#include "compile/program.h"
#include "compile/tune.h"
#include "core/dataset.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "graph/encode.h"
#include "ir/stages.h"
#include "ir/types.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace predtop::core {
namespace {

ir::Gpt3Config TinyGptConfig() {
  ir::Gpt3Config config;
  config.seq_len = 64;
  config.hidden = 64;
  config.num_layers = 4;
  config.num_heads = 4;
  config.vocab = 512;
  config.microbatch = 2;
  return config;
}

PredictorOptions TinyOptions() {
  PredictorOptions options;
  options.feature_dim = StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  options.gcn_dim = 32;
  options.gcn_layers = 3;
  options.gat_dim = 16;
  options.gat_layers = 3;
  return options;
}

graph::EncodedGraph TinyEncodedStage(std::int32_t first = 1, std::int32_t last = 2) {
  return EncodeStage(ir::BuildGpt3Stage(TinyGptConfig(), {first, last}));
}

constexpr PredictorKind kAllKinds[] = {PredictorKind::kDagTransformer, PredictorKind::kGcn,
                                       PredictorKind::kGat};

/// Compiled output within the 1e-6 relative parity contract of the tape.
void ExpectMatchesTape(StagePredictor& model, const graph::EncodedGraph& g,
                       const std::string& what) {
  const float tape = model.Forward(g).value().data()[0];
  const float compiled = model.InferScalar(g);
  ASSERT_TRUE(std::isfinite(compiled)) << model.Name() << " " << what;
  EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
      << model.Name() << " " << what << ": tape=" << tape << " compiled=" << compiled;
}

// ---- parity: compiled program vs autograd tape ----

TEST(CompiledParity, AllPredictorsMatchTapeAndFastPath) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    ExpectMatchesTape(*model, g, "tiny stage");
    // The program the forward ran is the cached one for g's shape class.
    EXPECT_NE(compile::ProgramCache::Global().Lookup(
                  model->InstanceId(), g.num_nodes,
                  static_cast<std::int64_t>(g.edge_src.size())),
              nullptr)
        << model->Name();
  }
}

TEST(CompiledParity, DagTransformerAblationsMatchTape) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      auto model = MakePredictor(PredictorKind::kDagTransformer, options);
      const float tape = model->Forward(g).value().data()[0];
      const float compiled = model->InferScalar(g);
      EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
          << "dagra=" << use_dagra << " dagpe=" << use_dagpe;
    }
  }
}

TEST(CompiledParity, SnapshotTracksOptimizerStep) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const float before = model->InferScalar(g);
    nn::Adam adam(*model);
    model->ZeroGrad();
    autograd::Backward(model->Forward(g));
    adam.Step(0.05f);
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = model->InferScalar(g);
    ASSERT_NE(before, tape) << model->Name() << ": step did not move the output";
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
        << model->Name() << ": stale snapshot after epoch bump";
  }
}

TEST(CompiledParity, MultipleShapeClassesCoexist) {
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  for (const auto& g : graphs) {
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = model->InferScalar(g);
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)))
        << "n=" << g.num_nodes;
  }
}

// ---- degenerate shapes and malformed inputs ----

graph::DagNode OpNode(std::int32_t op_type, std::int64_t d0, std::int64_t d1) {
  return {graph::NodeKind::kOperator, op_type % ir::kNumOpTypes, 0, {d0, d1, 1, 1}};
}

/// Encodes a hand-built DAG with the stage vocabularies, so its feature width
/// is the predictors' StageFeatureDim().
graph::EncodedGraph EncodeDag(const graph::OpDag& dag) {
  return graph::EncodeGraph(dag, ir::kNumOpTypes, ir::kNumDTypes);
}

graph::EncodedGraph SingleNodeGraph() {
  graph::OpDag dag;
  (void)dag.AddNode(OpNode(3, 8, 4));
  return EncodeDag(dag);
}

graph::EncodedGraph EdgelessGraph(int nodes) {
  graph::OpDag dag;
  for (int i = 0; i < nodes; ++i) (void)dag.AddNode(OpNode(i, 8 << (i % 4), 4));
  return EncodeDag(dag);
}

/// One sink fed by `fan_in` independent producers.
graph::EncodedGraph WideFanInGraph(int fan_in) {
  graph::OpDag dag;
  const std::int32_t sink = dag.AddNode(OpNode(5, 64, 64));
  for (int i = 0; i < fan_in; ++i) dag.AddEdge(dag.AddNode(OpNode(i, 16 + i, 8)), sink);
  return EncodeDag(dag);
}

/// Seeded random DAG (edges only from lower to higher index).
graph::EncodedGraph RandomDag(util::Rng& rng, int nodes) {
  graph::OpDag dag;
  for (int i = 0; i < nodes; ++i) {
    (void)dag.AddNode(OpNode(static_cast<std::int32_t>(rng.NextBelow(64)),
                             1 + static_cast<std::int64_t>(rng.NextBelow(512)), 4));
  }
  for (int v = 1; v < nodes; ++v) {
    for (int u = 0; u < v; ++u) {
      if (rng.NextBelow(8) == 0) dag.AddEdge(u, v);
    }
  }
  return EncodeDag(dag);
}

TEST(CompiledParity, DegenerateShapesMatchTape) {
  util::Rng rng(0xd36e);
  std::vector<std::pair<std::string, graph::EncodedGraph>> graphs;
  graphs.emplace_back("single node", SingleNodeGraph());
  graphs.emplace_back("no edges", EdgelessGraph(9));
  graphs.emplace_back("wide fan-in", WideFanInGraph(240));
  for (int i = 0; i < 4; ++i) {
    graphs.emplace_back("random dag " + std::to_string(i),
                        RandomDag(rng, 1 + static_cast<int>(rng.NextBelow(60))));
  }
  // Widths that are not multiples of the 16-wide packed panel (their
  // combined q|k|v pack has panels straddling q, k and v) next to panel
  // multiples.
  struct Widths {
    std::int64_t dagt_dim, dagt_heads, gcn_dim, gat_dim;
  };
  for (const Widths w : {Widths{24, 3, 40, 24}, Widths{40, 2, 40, 40}, Widths{32, 2, 48, 16}}) {
    PredictorOptions options = TinyOptions();
    options.dagt_dim = w.dagt_dim;
    options.dagt_heads = w.dagt_heads;
    options.gcn_dim = w.gcn_dim;
    options.gat_dim = w.gat_dim;
    for (const PredictorKind kind : kAllKinds) {
      auto model = MakePredictor(kind, options);
      for (const auto& [what, g] : graphs) {
        ExpectMatchesTape(*model, g,
                          what + " (n=" + std::to_string(g.num_nodes) +
                              ", dagt_dim=" + std::to_string(w.dagt_dim) + ")");
      }
    }
  }
}

TEST(CompiledParity, MalformedInputsThrowInvalidArgument) {
  const graph::EncodedGraph good = TinyEncodedStage();
  graph::EncodedGraph wide_features = good;
  wide_features.features = tensor::Tensor::Zeros({good.num_nodes, StageFeatureDim() + 1});
  graph::EncodedGraph no_adjacency = good;
  no_adjacency.adj_norm = nullptr;
  graph::EncodedGraph ragged_edges = good;
  ragged_edges.edge_dst.pop_back();
  const graph::EncodedGraph no_nodes;
  // Cold: the builder rejects the graph; warm: a program for the shape class
  // is cached already and the executor's input check rejects it.
  for (const bool warm : {false, true}) {
    for (const PredictorKind kind : kAllKinds) {
      LatencyRegressor regressor(kind, TinyOptions());
      StagePredictor& model = regressor.Model();
      if (warm) (void)model.InferScalar(good);
      std::vector<const graph::EncodedGraph*> malformed{&wide_features, &no_nodes};
      if (kind == PredictorKind::kGcn) malformed.push_back(&no_adjacency);
      if (kind == PredictorKind::kGat) malformed.push_back(&ragged_edges);
      for (const graph::EncodedGraph* g : malformed) {
        float out = 0.0f;
        EXPECT_THROW((void)model.InferScalar(*g), std::invalid_argument) << model.Name();
        EXPECT_THROW(model.InferScalarBatch(&g, 1, &out), std::invalid_argument)
            << model.Name();
        EXPECT_THROW((void)regressor.PredictSeconds(*g), std::invalid_argument)
            << model.Name();
        const std::vector<const graph::EncodedGraph*> batch{&good, g};
        EXPECT_THROW((void)regressor.PredictBatch(batch), std::invalid_argument)
            << model.Name();
      }
      // A rejected graph leaves the model serving well-formed ones.
      ExpectMatchesTape(model, good, warm ? "warm" : "cold");
    }
  }
}

// ---- determinism and the allocation-free warm forward ----

TEST(CompiledDeterminism, RepeatedExecuteIsBitIdentical) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const float first = model->InferScalar(g);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(model->InferScalar(g), first) << model->Name() << " run " << i;
    }
  }
}

TEST(CompiledArena, WarmForwardAllocatesNothing) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    (void)model->InferScalar(g);  // cold: builds program, grows plan buffer
    const std::int64_t plan_floats = compile::ThreadPlanBufferFloats();
    EXPECT_GT(plan_floats, 0) << model->Name();
    for (int i = 0; i < 3; ++i) (void)model->InferScalar(g);
    EXPECT_EQ(compile::ThreadPlanBufferFloats(), plan_floats)
        << model->Name() << ": warm forward grew the plan buffer";
  }
}

// ---- planner properties ----

std::vector<compile::Lifetime> RandomLifetimes(util::Rng& rng, int count, int max_steps) {
  std::vector<compile::Lifetime> lifetimes;
  lifetimes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    compile::Lifetime lt;
    lt.floats = static_cast<std::int64_t>(rng.NextU64() % 400);  // zero-size allowed
    lt.first = static_cast<std::int32_t>(rng.NextU64() % static_cast<std::uint64_t>(max_steps));
    lt.last = lt.first + static_cast<std::int32_t>(rng.NextU64() %
                                                   static_cast<std::uint64_t>(max_steps));
    lifetimes.push_back(lt);
  }
  return lifetimes;
}

TEST(Planner, LiveRangeIntersectingValuesNeverOverlap) {
  util::Rng rng(0x9141ULL);
  for (int round = 0; round < 50; ++round) {
    const auto lifetimes = RandomLifetimes(rng, 40, 24);
    const compile::PlanLayout layout = compile::PlanOffsets(lifetimes);
    ASSERT_EQ(layout.offsets.size(), lifetimes.size());
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
      if (lifetimes[i].floats <= 0) continue;
      EXPECT_EQ(layout.offsets[i] % compile::kPlanAlign, 0) << "round " << round;
      EXPECT_LE(layout.offsets[i] + lifetimes[i].floats, layout.total_floats);
      for (std::size_t j = i + 1; j < lifetimes.size(); ++j) {
        if (lifetimes[j].floats <= 0) continue;
        const bool live_overlap = lifetimes[i].first <= lifetimes[j].last &&
                                  lifetimes[j].first <= lifetimes[i].last;
        if (!live_overlap) continue;
        const bool mem_overlap = layout.offsets[i] < layout.offsets[j] + lifetimes[j].floats &&
                                 layout.offsets[j] < layout.offsets[i] + lifetimes[i].floats;
        EXPECT_FALSE(mem_overlap)
            << "round " << round << ": values " << i << " and " << j
            << " are live together at offsets " << layout.offsets[i] << "/"
            << layout.offsets[j];
      }
    }
  }
}

TEST(Planner, ReusesMemoryAcrossDisjointLifetimes) {
  // A chain a->b->c->d where each value dies as the next is defined: the
  // planner must reuse slots instead of laying the four out end to end.
  std::vector<compile::Lifetime> chain;
  for (int i = 0; i < 4; ++i) chain.push_back({.floats = 256, .first = i, .last = i + 1});
  const compile::PlanLayout layout = compile::PlanOffsets(chain);
  EXPECT_LT(layout.total_floats, 4 * 256);
  EXPECT_EQ(layout.offsets[0], layout.offsets[2]);  // a and c never coexist
  EXPECT_EQ(layout.offsets[1], layout.offsets[3]);
}

TEST(Planner, LayoutIsDeterministic) {
  util::Rng rng(77);
  const auto lifetimes = RandomLifetimes(rng, 30, 16);
  const compile::PlanLayout a = compile::PlanOffsets(lifetimes);
  const compile::PlanLayout b = compile::PlanOffsets(lifetimes);
  EXPECT_EQ(a.total_floats, b.total_floats);
  EXPECT_EQ(a.offsets, b.offsets);
}

// ---- fused attention at production scale ----

/// A real paper-size GPT-3 stage graph (the shape the prediction service
/// serves, ~230 nodes): large enough that every attention GEMM takes the
/// packed tier and the fuser emits kFusedAttention steps.
const graph::EncodedGraph& PaperScaleStage() {
  static const graph::EncodedGraph g =
      EncodeStage(ir::BuildGpt3Stage(ir::Gpt3Config{}, {0, 4}));
  return g;
}

PredictorOptions PaperOptions() {
  PredictorOptions options;  // defaults: DAG Transformer 4 x 64, 4 heads
  options.feature_dim = StageFeatureDim();
  return options;
}

/// Number of kFusedAttention steps in the program `model` ran on `g`.
int FusedAttentionSteps(const StagePredictor& model, const graph::EncodedGraph& g) {
  const auto program = compile::ProgramCache::Global().Lookup(
      model.InstanceId(), g.num_nodes, static_cast<std::int64_t>(g.edge_src.size()));
  if (program == nullptr) return -1;
  int fused = 0;
  for (const compile::Step& s : program->steps) {
    fused += s.kind == compile::OpKind::kFusedAttention ? 1 : 0;
  }
  return fused;
}

TEST(FusedParity, PaperScaleGraphTakesFusedKernelAndMatchesTape) {
  const graph::EncodedGraph& g = PaperScaleStage();
  for (const bool use_dagra : {true, false}) {
    PredictorOptions options = PaperOptions();
    options.use_dagra = use_dagra;
    auto model = MakePredictor(PredictorKind::kDagTransformer, options);
    ExpectMatchesTape(*model, g, use_dagra ? "dagra" : "no dagra");
    EXPECT_EQ(FusedAttentionSteps(*model, g), 4) << "expected every layer's attention to fuse";
  }
}

TEST(FusedParity, NarrowHeadsAndInexactScalesTakeFusedKernel) {
  // The plan search's shapes: head dim 8 (below one packed panel, with the
  // inexact logit scale 1/sqrt(8)) next to head dim 16, on GPT-3 stages of
  // 62, 230 and 846 nodes.
  std::vector<graph::EncodedGraph> graphs;
  for (const ir::StageSlice slice : {ir::StageSlice{0, 1}, ir::StageSlice{0, 4},
                                     ir::StageSlice{0, 15}}) {
    graphs.push_back(EncodeStage(ir::BuildGpt3Stage(ir::Gpt3Config{}, slice)));
  }
  util::ThreadPool four(4);
  struct Shape {
    std::int64_t dim, heads;
  };
  for (const Shape shape : {Shape{16, 2}, Shape{32, 4}, Shape{48, 3}}) {
    for (const bool use_dagra : {true, false}) {
      PredictorOptions options = PaperOptions();
      options.dagt_dim = shape.dim;
      options.dagt_heads = shape.heads;
      options.dagt_layers = 2;
      options.use_dagra = use_dagra;
      LatencyRegressor regressor(PredictorKind::kDagTransformer, options);
      StagePredictor& model = regressor.Model();
      const std::string what = "dim=" + std::to_string(shape.dim) +
                               " heads=" + std::to_string(shape.heads) +
                               (use_dagra ? " dagra" : " no dagra");
      std::vector<double> expected;
      for (const graph::EncodedGraph& g : graphs) {
        ExpectMatchesTape(model, g, what + " n=" + std::to_string(g.num_nodes));
        EXPECT_EQ(FusedAttentionSteps(model, g), 2)
            << what << " n=" << g.num_nodes << ": every layer's attention must fuse";
        expected.push_back(regressor.PredictSeconds(g));
      }
      const std::vector<double> batched =
          regressor.PredictBatch(std::span<const graph::EncodedGraph>(graphs), &four);
      ASSERT_EQ(batched.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(batched[i], expected[i]) << what << " batch i=" << i;
      }
    }
  }
}

// ---- program cache ----

TEST(ProgramCache, EntriesAreEvictedWhenOwnerDies) {
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  const graph::EncodedGraph g = TinyEncodedStage();
  {
    auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
    (void)model->InferScalar(g);
    EXPECT_GE(cache.Size(), 1u);
  }
  EXPECT_EQ(cache.Size(), 0u);  // ~StagePredictor evicted its programs
}

TEST(ProgramCache, LruStaysWithinCapacity) {
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  cache.SetCapacity(2);
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(2, 3),
      TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  for (const auto& g : graphs) {
    const float tape = model->Forward(g).value().data()[0];
    const float compiled = model->InferScalar(g);  // recompiles on eviction
    EXPECT_LE(std::abs(compiled - tape), 1e-6f * std::max(1.0f, std::abs(tape)));
    EXPECT_LE(cache.Size(), 2u);
  }
  cache.SetCapacity(128);
}

// ---- concurrency (exercised under TSan via ci/run.sh tsan) ----

TEST(CompiledConcurrency, SharedModelConcurrentCompiledForwardIsStable) {
  const std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(2, 3),
      TinyEncodedStage(0, 3)};
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  std::vector<float> expected;
  for (const auto& g : graphs) expected.push_back(model->InferScalar(g));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        const std::size_t which = static_cast<std::size_t>(t + i) % graphs.size();
        const float y = model->InferScalar(graphs[which]);
        if (y != expected[which]) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- batch-compiled execution ----

/// A same-shape batch with genuinely distinct inputs: copies of `g` whose
/// feature tensors are scaled per query. Shape class, depths, adjacency, and
/// DAGRA mask stay shared, so every copy routes to one compiled program while
/// each query's numbers differ — a wrong stacked offset shows up as a
/// cross-query value swap, not a silent pass.
std::vector<graph::EncodedGraph> DistinctSameShapeBatch(const graph::EncodedGraph& g,
                                                        std::size_t count) {
  std::vector<graph::EncodedGraph> graphs(count, g);
  for (std::size_t q = 0; q < count; ++q) {
    const float scale = 1.0f + 0.05f * static_cast<float>(q % 11);
    for (float& x : graphs[q].features.data()) x *= scale;
  }
  return graphs;
}

/// Pointer view + per-query sequential-compiled expectations for a batch.
struct BatchFixture {
  std::vector<graph::EncodedGraph> graphs;
  std::vector<const graph::EncodedGraph*> ptrs;
  std::vector<float> expected;  // sequential compiled scalar per query
};

BatchFixture MakeBatchFixture(StagePredictor& model, const graph::EncodedGraph& base,
                              std::size_t count) {
  BatchFixture f;
  f.graphs = DistinctSameShapeBatch(base, count);
  for (const auto& g : f.graphs) {
    f.ptrs.push_back(&g);
    f.expected.push_back(model.InferScalar(g));
  }
  return f;
}

/// Runs the first `batch` queries of `f` through InferScalarBatch under
/// `opts` and asserts bit-exact agreement with the sequential expectations.
void ExpectBatchParity(StagePredictor& model, const BatchFixture& f, std::size_t batch,
                       const compile::BatchOptions& opts, const char* what) {
  std::vector<float> out(batch, -1.0f);
  model.InferScalarBatch(f.ptrs.data(), batch, out.data(), opts);
  for (std::size_t q = 0; q < batch; ++q) {
    ASSERT_EQ(out[q], f.expected[q])
        << model.Name() << " " << what << " batch=" << batch << " q=" << q;
  }
}

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64};

TEST(CompiledBatch, SequentialModeMatchesExecuteBitExact) {
  const graph::EncodedGraph base = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const BatchFixture f = MakeBatchFixture(*model, base, 64);
    compile::BatchOptions opts;
    opts.mode = compile::BatchMode::kSequential;
    for (const std::size_t batch : kBatchSizes) {
      ExpectBatchParity(*model, f, batch, opts, "sequential");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CompiledBatch, InterleavedModeMatchesAcrossThreadCounts) {
  const graph::EncodedGraph base = TinyEncodedStage();
  for (const PredictorKind kind : kAllKinds) {
    auto model = MakePredictor(kind, TinyOptions());
    const BatchFixture f = MakeBatchFixture(*model, base, 64);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      compile::BatchOptions opts;
      opts.mode = compile::BatchMode::kInterleaved;
      opts.pool = &pool;
      for (const std::size_t batch : kBatchSizes) {
        ExpectBatchParity(*model, f, batch, opts, "interleaved");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CompiledBatch, DagTransformerAblationsMatchInBatch) {
  const graph::EncodedGraph base = TinyEncodedStage();
  for (const bool use_dagra : {true, false}) {
    for (const bool use_dagpe : {true, false}) {
      PredictorOptions options = TinyOptions();
      options.use_dagra = use_dagra;
      options.use_dagpe = use_dagpe;
      auto model = MakePredictor(PredictorKind::kDagTransformer, options);
      const BatchFixture f = MakeBatchFixture(*model, base, 7);
      util::ThreadPool pool(2);
      for (const compile::BatchMode mode :
           {compile::BatchMode::kSequential, compile::BatchMode::kInterleaved}) {
        compile::BatchOptions opts;
        opts.mode = mode;
        opts.pool = &pool;
        ExpectBatchParity(*model, f, 7, opts, "ablation");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CompiledBatch, AutoModeCountsEveryQuery) {
  const graph::EncodedGraph base = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  const BatchFixture f = MakeBatchFixture(*model, base, 5);
  const std::uint64_t before =
      compile::BatchedForwards() + compile::InterleavedForwards();
  ExpectBatchParity(*model, f, 5, compile::BatchOptions{}, "auto");
  EXPECT_EQ(compile::BatchedForwards() + compile::InterleavedForwards(), before + 5)
      << "every query must land in exactly one batch-path counter";
}

TEST(CompiledBatch, RegressorBatchMatchesSequentialAcrossShapes) {
  // Five shape classes, interleaved and with same-shape duplicates, run as
  // one mixed-shape work list: every query must come back bit-equal to its
  // own forward, in caller order, whichever mode and pool runs the list.
  std::vector<graph::EncodedGraph> graphs{
      TinyEncodedStage(0, 1), TinyEncodedStage(1, 2), TinyEncodedStage(0, 3),
      TinyEncodedStage(1, 2), TinyEncodedStage(2, 4), TinyEncodedStage(0, 1),
      TinyEncodedStage(0, 4), TinyEncodedStage(1, 2), TinyEncodedStage(2, 4)};
  std::vector<const graph::EncodedGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  for (const PredictorKind kind : kAllKinds) {
    LatencyRegressor regressor(kind, TinyOptions());
    StagePredictor& model = regressor.Model();
    std::vector<double> expected;
    std::vector<float> expected_scalar;
    for (const auto& g : graphs) {
      expected.push_back(regressor.PredictSeconds(g));
      expected_scalar.push_back(model.InferScalar(g));
    }
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr), &one, &four}) {
      // Pool size 0 stands for the compile layer's shared pool.
      const std::string where =
          model.Name() + " pool=" + std::to_string(pool != nullptr ? pool->ThreadCount() : 0);
      const std::vector<double> batched =
          regressor.PredictBatch(std::span<const graph::EncodedGraph>(graphs), pool);
      ASSERT_EQ(batched.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(batched[i], expected[i]) << where << " auto i=" << i;
      }
      for (const compile::BatchMode mode :
           {compile::BatchMode::kSequential, compile::BatchMode::kInterleaved}) {
        compile::BatchOptions opts;
        opts.mode = mode;
        opts.pool = pool;
        std::vector<float> out(graphs.size(), -1.0f);
        model.InferScalarBatch(ptrs.data(), ptrs.size(), out.data(), opts);
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(out[i], expected_scalar[i])
              << where << " mode=" << static_cast<int>(mode) << " i=" << i;
        }
      }
    }
  }
}

TEST(CompiledBatchArena, WarmBatchAllocatesNothing) {
  const graph::EncodedGraph base = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  const BatchFixture f = MakeBatchFixture(*model, base, 8);
  std::vector<float> out(8);
  compile::BatchOptions opts;
  opts.mode = compile::BatchMode::kSequential;
  // Cold: compiles the program (if needed) and grows the plan buffer.
  model->InferScalarBatch(f.ptrs.data(), 8, out.data(), opts);
  const std::int64_t plan_floats = compile::ThreadPlanBufferFloats();
  EXPECT_GT(plan_floats, 0);
  for (int i = 0; i < 3; ++i) model->InferScalarBatch(f.ptrs.data(), 8, out.data(), opts);
  EXPECT_EQ(compile::ThreadPlanBufferFloats(), plan_floats)
      << "warm batch grew the plan buffer";
}

TEST(ProgramCache, HitAndMissCountersAreMonotonic) {
  auto& cache = compile::ProgramCache::Global();
  cache.Clear();
  const graph::EncodedGraph g = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kGcn, TinyOptions());
  const std::uint64_t misses0 = cache.Misses();
  (void)model->InferScalar(g);  // cold: misses, then compiles and inserts
  EXPECT_GT(cache.Misses(), misses0);
  const std::uint64_t hits1 = cache.Hits();
  const std::uint64_t misses1 = cache.Misses();
  (void)model->InferScalar(g);  // warm: pure hit
  EXPECT_GT(cache.Hits(), hits1);
  EXPECT_EQ(cache.Misses(), misses1);
}

TEST(TuneTableResolution, EnvOverridesWinAndResolutionIsSticky) {
  const bool wide0 = tensor::GemmWideTiles();
  const std::int64_t pme0 = tensor::GemmParMinElems();
  const std::uint64_t sweeps0 = compile::AutotuneSweeps();
  setenv("PREDTOP_TUNE_WIDE_TILES", "0", 1);
  setenv("PREDTOP_TUNE_PAR_MIN_ELEMS", "123456", 1);
  setenv("PREDTOP_TUNE_INTERLEAVE_MIN_BATCH", "9", 1);
  setenv("PREDTOP_TUNE_INTERLEAVE_MIN_FLOPS", "77", 1);
  compile::detail::ResetTuneTableForTest();
  const compile::TuneTable& t = compile::ResolvedTuneTable();
  EXPECT_FALSE(t.wide_tiles);
  EXPECT_EQ(t.par_min_elems, 123456);
  EXPECT_EQ(t.interleave_min_batch, 9);
  EXPECT_EQ(t.interleave_min_flops, 77);
  EXPECT_FALSE(t.autotuned);  // env resolution runs no timing sweeps...
  EXPECT_EQ(compile::AutotuneSweeps(), sweeps0);
  // ...but explicit overrides do propagate to the tensor layer.
  EXPECT_FALSE(tensor::GemmWideTiles());
  EXPECT_EQ(tensor::GemmParMinElems(), 123456);
  // Sticky: once resolved, env changes are ignored until a reset.
  setenv("PREDTOP_TUNE_PAR_MIN_ELEMS", "999", 1);
  EXPECT_EQ(compile::ResolvedTuneTable().par_min_elems, 123456);
  unsetenv("PREDTOP_TUNE_WIDE_TILES");
  unsetenv("PREDTOP_TUNE_PAR_MIN_ELEMS");
  unsetenv("PREDTOP_TUNE_INTERLEAVE_MIN_BATCH");
  unsetenv("PREDTOP_TUNE_INTERLEAVE_MIN_FLOPS");
  tensor::SetGemmWideTiles(wide0);
  tensor::SetGemmParMinElems(pme0);
  compile::detail::ResetTuneTableForTest();
}

TEST(TuneTableResolution, DefaultResolutionNeverMovesTensorKnobs) {
  const bool wide0 = tensor::GemmWideTiles();
  const std::int64_t pme0 = tensor::GemmParMinElems();
  tensor::SetGemmWideTiles(!wide0);  // pretend a test manages this global
  compile::detail::ResetTuneTableForTest();
  const compile::TuneTable& t = compile::ResolvedTuneTable();
  EXPECT_EQ(t.wide_tiles, !wide0);  // defaults mirror the current state...
  EXPECT_EQ(tensor::GemmWideTiles(), !wide0);  // ...and never stomp it
  EXPECT_EQ(tensor::GemmParMinElems(), pme0);
  tensor::SetGemmWideTiles(wide0);
  compile::detail::ResetTuneTableForTest();
}

// Exercised under TSan via ci/run.sh tsan: concurrent batches on one shared
// model hit the program cache, the weight snapshot, and the per-thread plan
// buffers from many threads at once.
TEST(CompiledBatchConcurrency, SharedModelConcurrentBatchForwardIsStable) {
  const graph::EncodedGraph base = TinyEncodedStage();
  auto model = MakePredictor(PredictorKind::kDagTransformer, TinyOptions());
  const BatchFixture f = MakeBatchFixture(*model, base, 6);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      compile::BatchOptions opts;
      opts.mode = compile::BatchMode::kSequential;
      std::vector<float> out(f.ptrs.size());
      for (int i = 0; i < 16; ++i) {
        model->InferScalarBatch(f.ptrs.data(), f.ptrs.size(), out.data(), opts);
        for (std::size_t q = 0; q < f.ptrs.size(); ++q) {
          if (out[q] != f.expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace predtop::core
