// Tests for the PredTOP core: predictor zoo, dataset construction, the
// latency regressor, the grey-box estimator and the plan-search scaffolding.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "core/dataset.h"
#include "core/encoding_table.h"
#include "core/greybox.h"
#include "core/plan_search.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "ir/printer.h"
#include "ir/resnet.h"
#include "ir/stages.h"
#include "util/thread_pool.h"

namespace predtop::core {
namespace {

/// Small GPT-3-shaped model so core tests stay fast.
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

graph::EncodedGraph TinyEncodedStage() {
  return EncodeStage(ir::BuildGpt3Stage(TinyGptConfig(), {1, 2}));
}

TEST(Predictors, KindNamesMatchPaperColumns) {
  EXPECT_STREQ(PredictorKindName(PredictorKind::kDagTransformer), "Tran");
  EXPECT_STREQ(PredictorKindName(PredictorKind::kGcn), "GCN");
  EXPECT_STREQ(PredictorKindName(PredictorKind::kGat), "GAT");
}

TEST(Predictors, AllKindsProduceScalarOutput) {
  const graph::EncodedGraph g = TinyEncodedStage();
  for (const PredictorKind kind :
       {PredictorKind::kDagTransformer, PredictorKind::kGcn, PredictorKind::kGat}) {
    auto model = MakePredictor(kind, TinyOptions());
    const autograd::Variable out = model->Forward(g);
    EXPECT_EQ(out.value().numel(), 1) << model->Name();
    EXPECT_TRUE(std::isfinite(out.value().data()[0])) << model->Name();
    EXPECT_GT(model->ParameterCount(), 100u) << model->Name();
  }
}

TEST(Predictors, RequiresFeatureDim) {
  PredictorOptions options;  // feature_dim unset
  EXPECT_THROW(MakePredictor(PredictorKind::kGcn, options), std::invalid_argument);
}

TEST(Predictors, DagraAblationChangesOutput) {
  const graph::EncodedGraph g = TinyEncodedStage();
  PredictorOptions masked = TinyOptions();
  PredictorOptions unmasked = TinyOptions();
  unmasked.use_dagra = false;
  auto with = MakePredictor(PredictorKind::kDagTransformer, masked);
  auto without = MakePredictor(PredictorKind::kDagTransformer, unmasked);
  // Same seed -> same weights; only the mask differs.
  const float a = with->Forward(g).value().data()[0];
  const float b = without->Forward(g).value().data()[0];
  EXPECT_NE(a, b);
}

TEST(Predictors, DagpeAblationChangesOutput) {
  const graph::EncodedGraph g = TinyEncodedStage();
  PredictorOptions base = TinyOptions();
  PredictorOptions no_pe = TinyOptions();
  no_pe.use_dagpe = false;
  const float a = MakePredictor(PredictorKind::kDagTransformer, base)->Forward(g)
                      .value().data()[0];
  const float b = MakePredictor(PredictorKind::kDagTransformer, no_pe)->Forward(g)
                      .value().data()[0];
  EXPECT_NE(a, b);
}

TEST(Predictors, DeterministicPerSeed) {
  const graph::EncodedGraph g = TinyEncodedStage();
  const float a =
      MakePredictor(PredictorKind::kGat, TinyOptions())->Forward(g).value().data()[0];
  const float b =
      MakePredictor(PredictorKind::kGat, TinyOptions())->Forward(g).value().data()[0];
  EXPECT_EQ(a, b);
}

// ---- dataset ----

TEST(Dataset, BuildsLabeledSamples) {
  const BenchmarkModel benchmark = Gpt3Benchmark(TinyGptConfig());
  const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 2});
  sim::Profiler profiler({}, 11);
  DatasetBuildConfig build;
  build.num_samples = 6;
  const StageDataset dataset =
      BuildStageDataset(benchmark, compiler, {2, 1, 1}, profiler, build);
  ASSERT_EQ(dataset.Size(), 6u);
  EXPECT_EQ(dataset.labels.size(), 6u);
  EXPECT_EQ(profiler.StagesProfiled(), 6);
  EXPECT_GT(profiler.TotalCostSeconds(), 0.0);
  for (const StageSample& s : dataset.samples) {
    EXPECT_GT(s.true_latency_s, 0.0);
    // Measurement noise is small (~1.5%).
    EXPECT_NEAR(s.measured_latency_s / s.true_latency_s, 1.0, 0.2);
    EXPECT_GT(s.encoded.num_nodes, 0);
    EXPECT_EQ(s.encoded.features.dim(1), StageFeatureDim());
  }
}

TEST(Dataset, BestConfigLabelsAreMinOverConfigs) {
  const BenchmarkModel benchmark = Gpt3Benchmark(TinyGptConfig());
  const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 2});
  const auto configs = parallel::PaperConfigs(sim::Mesh{1, 2});
  sim::Profiler profiler({}, 12);
  DatasetBuildConfig build;
  build.num_samples = 4;
  const StageDataset dataset =
      BuildStageDatasetBestConfig(benchmark, compiler, configs, profiler, build);
  for (const StageSample& s : dataset.samples) {
    const auto program = benchmark.build_stage(s.slice);
    double manual_best = std::numeric_limits<double>::infinity();
    for (const auto& c : configs) {
      manual_best = std::min(manual_best, compiler.Compile(program, c).latency_s);
    }
    EXPECT_NEAR(s.true_latency_s, manual_best, 1e-12);
  }
}

TEST(Dataset, MaxSpanBoundsStageSizes) {
  const BenchmarkModel benchmark = Gpt3Benchmark(TinyGptConfig());
  const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 1});
  sim::Profiler profiler({}, 13);
  DatasetBuildConfig build;
  build.max_span = 2;
  const StageDataset dataset =
      BuildStageDataset(benchmark, compiler, {1, 1, 1}, profiler, build);
  for (const StageSample& s : dataset.samples) {
    EXPECT_LE(s.slice.NumLayers(), 2);
  }
}

// ---- regressor ----

TEST(Regressor, FitsTinyDatasetToLowTrainError) {
  const BenchmarkModel benchmark = Gpt3Benchmark(TinyGptConfig());
  const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 2});
  sim::Profiler profiler({}, 14);
  DatasetBuildConfig build;  // all 10 stages of the 4-layer model
  const StageDataset dataset =
      BuildStageDataset(benchmark, compiler, {2, 1, 1}, profiler, build);
  ASSERT_EQ(dataset.Size(), 10u);

  LatencyRegressor regressor(PredictorKind::kDagTransformer, TinyOptions());
  nn::TrainConfig train;
  train.max_epochs = 300;
  train.patience = 300;
  train.batch_size = 4;
  std::vector<std::size_t> train_idx{0, 1, 2, 3, 4, 5, 6, 7};
  // Validate on the training set itself so best-weights restore tracks the
  // fit (held-out generalization is covered by the integration tests).
  const nn::TrainResult result = regressor.Fit(dataset, train_idx, train_idx, train);
  EXPECT_GT(result.epochs_run, 0);
  const double train_mre = regressor.MrePercent(dataset, train_idx);
  EXPECT_LT(train_mre, 25.0);
  for (const StageSample& sample : dataset.samples) {
    EXPECT_GT(regressor.PredictSeconds(sample.encoded), 0.0);
  }
}

TEST(Regressor, RejectsEmptyTrainingSet) {
  LatencyRegressor regressor(PredictorKind::kGcn, TinyOptions());
  const StageDataset dataset;
  EXPECT_THROW(regressor.Fit(dataset, {}, {}, {}), std::invalid_argument);
}

// ---- GCN through the shared transpose ----

/// `g` with Â^T rebuilt as a separate, explicitly transposed matrix: the
/// layout of an encoder that does not share the symmetric Â with its
/// transpose.
graph::EncodedGraph WithExplicitTranspose(const graph::EncodedGraph& g) {
  graph::EncodedGraph out = g;
  out.adj_norm_t = std::make_shared<tensor::Csr>(g.adj_norm->Transposed());
  return out;
}

/// The tape output followed by every parameter gradient of one backward.
std::vector<tensor::Tensor> OutputAndGradients(StagePredictor& model,
                                               const graph::EncodedGraph& g) {
  model.ZeroGrad();
  const autograd::Variable out = model.Forward(g);
  autograd::Backward(out);
  std::vector<tensor::Tensor> result{out.value()};
  for (const autograd::Variable* p : model.Parameters()) result.push_back(p->grad());
  return result;
}

void ExpectSameBits(const tensor::Tensor& got, const tensor::Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.data().size() * sizeof(float)),
            0)
      << what;
}

TEST(GcnSharedTranspose, GradientsAndFitMatchExplicitTranspose) {
  const graph::EncodedGraph shared = EncodeStage(ir::BuildGpt3Stage(TinyGptConfig(), {0, 2}));
  ASSERT_EQ(shared.adj_norm_t, shared.adj_norm) << "the encoder shares Â as its transpose";
  const graph::EncodedGraph separate = WithExplicitTranspose(shared);

  // Output and gradients are bit-equal whichever matrix the backward reads.
  auto model = MakePredictor(PredictorKind::kGcn, TinyOptions());
  const std::vector<tensor::Tensor> got = OutputAndGradients(*model, shared);
  const std::vector<tensor::Tensor> want = OutputAndGradients(*model, separate);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ExpectSameBits(got[i], want[i], i == 0 ? "output" : "grad " + std::to_string(i - 1));
  }

  // The analytic gradients through the shared transpose match central
  // differences (a few elements per parameter).
  const std::vector<autograd::Variable*> params = model->Parameters();
  const auto forward = [&] { return static_cast<double>(model->Forward(shared).value().data()[0]); };
  for (std::size_t p = 0; p < params.size(); ++p) {
    const tensor::Tensor& analytic = got[p + 1];
    const std::int64_t count = std::min<std::int64_t>(3, analytic.numel());
    for (std::int64_t e = 0; e < count; ++e) {
      const std::int64_t i = e * std::max<std::int64_t>(1, analytic.numel() / count);
      float& slot = params[p]->mutable_value().data()[static_cast<std::size_t>(i)];
      const float saved = slot;
      constexpr float kEps = 1e-2f;
      slot = saved + kEps;
      const double up = forward();
      slot = saved - kEps;
      const double down = forward();
      slot = saved;
      const double numeric = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(analytic.data()[static_cast<std::size_t>(i)], numeric,
                  5e-2 * std::max(1.0, std::fabs(numeric)))
          << "param " << p << " elem " << i;
    }
  }

  // One Fit step from identical weights: the same loss and the same weights.
  StageDataset with_shared;
  StageDataset with_separate;
  for (const ir::StageSlice slice : {ir::StageSlice{0, 1}, ir::StageSlice{1, 3},
                                     ir::StageSlice{0, 2}}) {
    StageSample sample;
    sample.slice = slice;
    sample.encoded = EncodeStage(ir::BuildGpt3Stage(TinyGptConfig(), slice));
    with_shared.labels.push_back(1e-3f * static_cast<float>(slice.NumLayers()));
    with_separate.labels.push_back(with_shared.labels.back());
    with_separate.samples.push_back(sample);
    with_separate.samples.back().encoded = WithExplicitTranspose(sample.encoded);
    with_shared.samples.push_back(std::move(sample));
  }
  nn::TrainConfig train;
  train.max_epochs = 1;
  train.batch_size = 3;
  const std::vector<std::size_t> idx{0, 1, 2};
  LatencyRegressor a(PredictorKind::kGcn, TinyOptions());
  LatencyRegressor b(PredictorKind::kGcn, TinyOptions());
  const nn::TrainResult ra = a.Fit(with_shared, idx, idx, train);
  const nn::TrainResult rb = b.Fit(with_separate, idx, idx, train);
  ASSERT_EQ(ra.train_loss_history.size(), 1u);
  EXPECT_EQ(ra.train_loss_history, rb.train_loss_history);
  EXPECT_EQ(ra.val_loss_history, rb.val_loss_history);
  const std::vector<tensor::Tensor> wa = a.Model().SnapshotParameters();
  const std::vector<tensor::Tensor> wb = b.Model().SnapshotParameters();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    ExpectSameBits(wa[i], wb[i], "weight " + std::to_string(i) + " after one step");
  }
}

// ---- grey box ----

TEST(GreyBox, ComposesPredictionsWithEqn4) {
  const BenchmarkModel benchmark = Gpt3Benchmark(TinyGptConfig());
  auto regressor =
      std::make_shared<LatencyRegressor>(PredictorKind::kDagTransformer, TinyOptions());
  // Untrained is fine: we only check the white-box composition.
  GreyBoxEstimator estimator(benchmark, {{sim::Mesh{1, 2}, regressor}});

  parallel::PipelinePlan plan;
  plan.num_microbatches = 3;
  plan.stages.push_back({ir::StageSlice{0, 2}, sim::Mesh{1, 2}, {}, 0.0});
  plan.stages.push_back({ir::StageSlice{2, 4}, sim::Mesh{1, 2}, {}, 0.0});

  const double s1 = estimator.EstimateStageLatency({0, 2}, sim::Mesh{1, 2});
  const double s2 = estimator.EstimateStageLatency({2, 4}, sim::Mesh{1, 2});
  const double expected = s1 + s2 + 2.0 * std::max(s1, s2);
  EXPECT_NEAR(estimator.EstimateIterationLatency(plan), expected, 1e-9);
}

TEST(GreyBox, UnknownMeshThrows) {
  const BenchmarkModel benchmark = Gpt3Benchmark(TinyGptConfig());
  auto regressor = std::make_shared<LatencyRegressor>(PredictorKind::kGcn, TinyOptions());
  GreyBoxEstimator estimator(benchmark, {{sim::Mesh{1, 1}, regressor}});
  EXPECT_THROW((void)estimator.EstimateStageLatency({0, 1}, sim::Mesh{2, 2}),
               std::invalid_argument);
}

TEST(GreyBox, RequiresAtLeastOneRegressor) {
  EXPECT_THROW(GreyBoxEstimator(Gpt3Benchmark(TinyGptConfig()), {}), std::invalid_argument);
}

// ---- plan search ----

TEST(PlanSearch, ApproachNamesAreDistinct) {
  std::set<std::string> names;
  for (const PlanApproach a :
       {PlanApproach::kFullProfiling, PlanApproach::kPartialProfiling,
        PlanApproach::kPredTopDagTransformer, PlanApproach::kPredTopGcn,
        PlanApproach::kPredTopGat}) {
    names.insert(PlanApproachName(a));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(PlanSearch, TrueStageLatencyIsMemoizedAndConfigOptimal) {
  PlanSearchConfig config;
  PlanSearch search(Gpt3Benchmark(TinyGptConfig()), sim::Platform1(), config);
  const auto r1 = search.TrueStageLatency({0, 2}, sim::Mesh{1, 2});
  const auto r2 = search.TrueStageLatency({0, 2}, sim::Mesh{1, 2});
  EXPECT_DOUBLE_EQ(r1.latency_s, r2.latency_s);
  EXPECT_GT(r1.latency_s, 0.0);
  // Must equal the best over the paper configs computed manually.
  const parallel::IntraOpCompiler compiler(sim::Platform1(), sim::Mesh{1, 2});
  const auto program = ir::BuildGpt3Stage(TinyGptConfig(), {0, 2});
  const auto best =
      compiler.CompileBest(program, parallel::PaperConfigs(sim::Mesh{1, 2}));
  EXPECT_DOUBLE_EQ(r1.latency_s, best.latency_s);
}

TEST(PlanSearch, FullProfilingProducesValidPlan) {
  PlanSearchConfig config;
  config.num_microbatches = 4;
  PlanSearch search(Gpt3Benchmark(TinyGptConfig()), sim::Platform1(), config);
  const PlanSearchResult result = search.Run(PlanApproach::kFullProfiling);
  ASSERT_TRUE(result.plan.Valid());
  EXPECT_GT(result.plan_true_latency_s, 0.0);
  EXPECT_GT(result.profiling_cost_s, 0.0);
  EXPECT_EQ(result.optimization_cost_s, result.profiling_cost_s);
  EXPECT_GT(result.stages_profiled, 0);
  // Contiguous cover of all 4 layers.
  std::int32_t cursor = 0;
  for (const auto& stage : result.plan.stages) {
    EXPECT_EQ(stage.slice.first_layer, cursor);
    cursor = stage.slice.last_layer;
  }
  EXPECT_EQ(cursor, 4);
}

TEST(PlanSearch, PartialProfilingIsCheaperThanFull) {
  PlanSearchConfig config;
  config.num_microbatches = 4;
  PlanSearch search(Gpt3Benchmark(TinyGptConfig()), sim::Platform1(), config);
  const PlanSearchResult full = search.Run(PlanApproach::kFullProfiling);
  const PlanSearchResult partial = search.Run(PlanApproach::kPartialProfiling);
  ASSERT_TRUE(partial.plan.Valid());
  EXPECT_LT(partial.stages_profiled, full.stages_profiled);
  EXPECT_LT(partial.optimization_cost_s, full.optimization_cost_s);
  // Heuristic pruning can only degrade (or match) the plan.
  EXPECT_GE(partial.plan_true_latency_s, full.plan_true_latency_s - 1e-9);
}

/// Byte-for-byte equality of two CSR matrices.
void ExpectSameCsr(const tensor::Csr& a, const tensor::Csr& b, const std::string& what) {
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.cols, b.cols) << what;
  EXPECT_EQ(a.row_ptr, b.row_ptr) << what;
  EXPECT_EQ(a.col_idx, b.col_idx) << what;
  ASSERT_EQ(a.values.size(), b.values.size()) << what;
  EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(), a.values.size() * sizeof(float)), 0)
      << what;
}

/// Every artifact of `got` equals `want`: feature bytes, depths, mask words,
/// both CSR matrices, the GAT edge lists and the fingerprint.
void ExpectSameEncoding(const graph::EncodedGraph& got, const graph::EncodedGraph& want,
                        const std::string& what) {
  ASSERT_EQ(got.num_nodes, want.num_nodes) << what;
  ASSERT_EQ(got.features.numel(), want.features.numel()) << what;
  EXPECT_EQ(std::memcmp(got.features.data().data(), want.features.data().data(),
                        want.features.data().size() * sizeof(float)),
            0)
      << what;
  EXPECT_EQ(got.depths, want.depths) << what;
  EXPECT_EQ(got.dagra_mask, want.dagra_mask) << what;
  ASSERT_NE(got.adj_norm, nullptr) << what;
  ASSERT_NE(got.adj_norm_t, nullptr) << what;
  ExpectSameCsr(*got.adj_norm, *want.adj_norm, what + " adj_norm");
  ExpectSameCsr(*got.adj_norm_t, *want.adj_norm_t, what + " adj_norm_t");
  EXPECT_EQ(got.edge_src, want.edge_src) << what;
  EXPECT_EQ(got.edge_dst, want.edge_dst) << what;
  EXPECT_EQ(got.fingerprint, want.fingerprint) << what;
}

TEST(PlanSearch, ParallelMemoFillMatchesStandaloneEncoding) {
  // The fig10 GPT-3 / platform-1 search: the paper-size 24-layer model with
  // stages of up to 15 layers (255 slices). build_stage counts its calls, so
  // the test sees which slices each memo fill built.
  const BenchmarkModel paper = Gpt3Benchmark(ir::Gpt3Config{});
  auto builds = std::make_shared<std::atomic<int>>(0);
  BenchmarkModel counted = paper;
  counted.build_stage = [builds, build = paper.build_stage](ir::StageSlice slice) {
    builds->fetch_add(1);
    return build(slice);
  };
  PlanSearchConfig config;
  config.max_span = 15;
  PlanSearch search(counted, sim::Platform1(), config);
  const auto slices = ir::EnumerateStageSlices(paper.num_layers, config.max_span);
  ASSERT_EQ(slices.size(), 255u);

  // A slice over the max span encodes lazily: one build, no memo fill.
  const ir::StageSlice wide{0, config.max_span + 1};
  ExpectSameEncoding(search.EncodedFor(wide), EncodeStage(paper.build_stage(wide)), "wide");
  EXPECT_EQ(builds->load(), 1);

  // The first in-span miss builds and encodes one slice per computation
  // class: a GPT-3 slice's program depends only on its span and on holding
  // the embedding or the LM head, so the 255 slices are 45 classes. Every
  // other slice's program shares its class's body and prints as its own
  // build does.
  std::set<const graph::EncodedGraph*> distinct;
  for (const ir::StageSlice slice : slices) {
    const std::string what =
        std::to_string(slice.first_layer) + ".." + std::to_string(slice.last_layer);
    const ir::StageProgram fresh = paper.build_stage(slice);
    EXPECT_EQ(ir::PrintProgram(search.ProgramFor(slice)), ir::PrintProgram(fresh)) << what;
    ExpectSameEncoding(search.EncodedFor(slice), EncodeStage(fresh), what);
    if (HasFatalFailure()) return;
    distinct.insert(&search.EncodedFor(slice));
  }
  EXPECT_EQ(builds->load(), 1 + 45);
  EXPECT_EQ(distinct.size(), 45u);
}

/// Every in-span slice of `search` prints and encodes byte-identically to a
/// standalone build and EncodeStage, and two slices share an encoding
/// exactly when their programs are equal. Returns the number of distinct
/// encodings.
std::size_t ExpectSharingIsExact(PlanSearch& search, const BenchmarkModel& model) {
  const auto slices = ir::EnumerateStageSlices(model.num_layers, search.EffectiveMaxSpan());
  std::vector<ir::StageProgram> programs;
  std::vector<const graph::EncodedGraph*> encoded;
  for (const ir::StageSlice slice : slices) {
    const std::string what = model.name + " " + std::to_string(slice.first_layer) + ".." +
                             std::to_string(slice.last_layer);
    programs.push_back(model.build_stage(slice));
    encoded.push_back(&search.EncodedFor(slice));
    EXPECT_EQ(ir::PrintProgram(search.ProgramFor(slice)), ir::PrintProgram(programs.back()))
        << what;
    ExpectSameEncoding(*encoded.back(), EncodeStage(programs.back()), what);
  }
  for (std::size_t a = 0; a < slices.size(); ++a) {
    for (std::size_t b = a + 1; b < slices.size(); ++b) {
      EXPECT_EQ(encoded[a] == encoded[b], programs[a].SameComputation(programs[b]))
          << model.name << " slices " << a << " and " << b;
    }
  }
  return std::set<const graph::EncodedGraph*>(encoded.begin(), encoded.end()).size();
}

TEST(PlanSearch, SharedEncodingsMatchStandaloneAcrossModels) {
  // MoE alternates dense and expert layers, so a slice's program also
  // depends on the parity of its first layer: 297 slices, 44 encodings.
  const BenchmarkModel moe = MoeBenchmark(ir::MoeConfig{});
  PlanSearchConfig config;
  config.max_span = 11;
  PlanSearch moe_search(moe, sim::Platform2(), config);
  EXPECT_EQ(ir::EnumerateStageSlices(moe.num_layers, config.max_span).size(), 297u);
  EXPECT_EQ(ExpectSharingIsExact(moe_search, moe), 44u);

  // Wide-ResNet's residual blocks change width and resolution group by
  // group, so equal programs are the exception; sharing must still be exact.
  const BenchmarkModel wrn = WideResNetBenchmark();
  PlanSearch wrn_search(wrn, sim::Platform1(), PlanSearchConfig{});
  const std::size_t wrn_distinct = ExpectSharingIsExact(wrn_search, wrn);
  EXPECT_GT(wrn_distinct, 1u);
  EXPECT_LE(wrn_distinct, ir::EnumerateStageSlices(wrn.num_layers, wrn.num_layers).size());
}

/// Expects every pair of `slices` to be in one StageClass exactly when the
/// two programs are SameComputation.
void ExpectClassIsComputation(const BenchmarkModel& model,
                              const std::vector<ir::StageSlice>& slices) {
  std::vector<ir::StageProgram> programs;
  std::vector<std::vector<std::int32_t>> classes;
  for (const ir::StageSlice slice : slices) {
    programs.push_back(model.build_stage(slice));
    classes.push_back(model.StageClass(slice));
  }
  for (std::size_t a = 0; a < slices.size(); ++a) {
    for (std::size_t b = a + 1; b < slices.size(); ++b) {
      ASSERT_EQ(classes[a] == classes[b], programs[a].SameComputation(programs[b]))
          << model.name << " [" << slices[a].first_layer << "," << slices[a].last_layer
          << ") vs [" << slices[b].first_layer << "," << slices[b].last_layer << ")";
    }
  }
}

TEST(BenchmarkModel, StageClassIsExactlySameComputation) {
  const BenchmarkModel gpt = Gpt3Benchmark(ir::Gpt3Config{});
  ExpectClassIsComputation(gpt, ir::EnumerateStageSlices(gpt.num_layers, 15));
  ExpectClassIsComputation(gpt, ir::EnumerateStageSlices(gpt.num_layers, 9));
  const BenchmarkModel moe = MoeBenchmark(ir::MoeConfig{});
  ExpectClassIsComputation(moe, ir::EnumerateStageSlices(moe.num_layers, 11));
  const BenchmarkModel wrn = WideResNetBenchmark();
  ExpectClassIsComputation(wrn, ir::EnumerateStageSlices(wrn.num_layers));

  // A model that declares no kinds puts every slice in a class of its own.
  BenchmarkModel undeclared = gpt;
  undeclared.layer_kinds.clear();
  std::set<std::vector<std::int32_t>> classes;
  for (const ir::StageSlice slice : ir::EnumerateStageSlices(undeclared.num_layers)) {
    EXPECT_TRUE(classes.insert(undeclared.StageClass(slice)).second);
  }
}

TEST(EncodingTable, OneBuildAndEncodingPerClass) {
  // Six tiny GPT-3 layers: 21 slices in 15 classes. build_stage counts its
  // calls, so the test sees what the table builds.
  ir::Gpt3Config tiny = TinyGptConfig();
  tiny.num_layers = 6;
  const BenchmarkModel gpt = Gpt3Benchmark(tiny);
  auto builds = std::make_shared<std::atomic<int>>(0);
  BenchmarkModel counted = gpt;
  counted.build_stage = [builds, build = gpt.build_stage](ir::StageSlice slice) {
    builds->fetch_add(1);
    return build(slice);
  };
  EncodingTable table(counted);

  // Program alone builds its class representative but encodes nothing;
  // another slice of the class reuses the body.
  const ir::StageProgram& first = table.Program({1, 3});
  EXPECT_EQ(builds->load(), 1);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(&table.Program({2, 4}).values() == &first.values());
  EXPECT_EQ(ir::PrintProgram(table.Program({2, 4})), ir::PrintProgram(gpt.build_stage({2, 4})));
  EXPECT_EQ(builds->load(), 1);

  // Fill builds every other class once and encodes every class once.
  const auto slices = ir::EnumerateStageSlices(6);
  util::ThreadPool pool(2);
  table.Fill(slices, &pool);
  EXPECT_EQ(builds->load(), 15);
  EXPECT_EQ(table.size(), 15u);
  std::set<const graph::EncodedGraph*> distinct;
  for (const ir::StageSlice slice : slices) {
    const ir::StageProgram fresh = gpt.build_stage(slice);
    const std::string what = fresh.name;
    EXPECT_EQ(ir::PrintProgram(table.Program(slice)), ir::PrintProgram(fresh)) << what;
    ExpectSameEncoding(table.Encoded(slice), EncodeStage(fresh), what);
    distinct.insert(&table.Encoded(slice));
  }
  EXPECT_EQ(distinct.size(), 15u);
  table.Fill(slices, &pool);  // nothing left to do
  EXPECT_EQ(builds->load(), 15);
  EXPECT_EQ(table.size(), 15u);
}

TEST(EncodingTable, FailedFillCommitsNothing) {
  const BenchmarkModel gpt = Gpt3Benchmark(TinyGptConfig());
  BenchmarkModel failing = gpt;
  failing.build_stage = [build = gpt.build_stage](ir::StageSlice slice) {
    if (slice.NumLayers() == 3) throw std::runtime_error("build failed");
    return build(slice);
  };
  EncodingTable table(failing);
  util::ThreadPool pool(2);
  EXPECT_THROW(table.Fill(ir::EnumerateStageSlices(4), &pool), std::runtime_error);
  EXPECT_EQ(table.size(), 0u);
  // The classes that can be built still resolve, one encoding each.
  ExpectSameEncoding(table.Encoded({1, 2}), EncodeStage(gpt.build_stage({2, 3})), "middle");
  EXPECT_EQ(table.size(), 1u);
}

}  // namespace
}  // namespace predtop::core
