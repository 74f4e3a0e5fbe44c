#pragma once
// Profiling-phase dataset construction (paper §VI phase 1): sample stages of
// different sizes, run the intra-stage compiler to obtain each stage's
// optimal parallel latency on the target mesh, profile it (noisily, with
// cost charged to the ledger), and encode the pruned operator DAG as
// predictor input.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/encode.h"
#include "ir/models.h"
#include "ir/resnet.h"
#include "parallel/intra_op.h"
#include "sim/profiler.h"

namespace predtop::core {

/// A benchmark model the workflow slices into stages (GPT-3, MoE or
/// Wide-ResNet).
struct BenchmarkModel {
  std::string name;
  std::int32_t num_layers = 0;
  std::function<ir::StageProgram(ir::StageSlice)> build_stage;
  /// Which layers emit identical equations (ir::LayerKinds): one kind per
  /// layer. Empty means every layer is distinct, which shares nothing and is
  /// always correct. build_stage must name its stages with ir::StageName.
  std::vector<std::int32_t> layer_kinds;

  /// A slice's computation class: (holds the embedding, holds the LM head,
  /// the kinds of its layers in order). Slices of one class build programs
  /// that are ir::StageProgram::SameComputation.
  [[nodiscard]] std::vector<std::int32_t> StageClass(ir::StageSlice slice) const;
};

[[nodiscard]] BenchmarkModel Gpt3Benchmark(ir::Gpt3Config config = {});
[[nodiscard]] BenchmarkModel MoeBenchmark(ir::MoeConfig config = {});
[[nodiscard]] BenchmarkModel WideResNetBenchmark(ir::WideResNetConfig config = {});

struct StageSample {
  ir::StageSlice slice;
  std::string name;
  graph::EncodedGraph encoded;
  std::int64_t num_equations = 0;
  /// Noiseless simulated optimal intra-stage latency (evaluation ground truth).
  double true_latency_s = 0.0;
  /// Noisy profiled latency (the training label, paper §IV-B1).
  float measured_latency_s = 0.0f;
};

struct StageDataset {
  std::vector<StageSample> samples;
  /// Training targets: measured latencies, parallel to `samples`.
  std::vector<float> labels;

  [[nodiscard]] std::size_t Size() const noexcept { return samples.size(); }
};

struct DatasetBuildConfig {
  /// Number of stages to sample (0 = all enumerable stages).
  std::size_t num_samples = 0;
  /// Bound on stage span in layers (0 = unbounded). Lets small machines cap
  /// graph sizes; the paper's grid uses unbounded spans.
  std::int32_t max_span = 0;
  std::uint64_t sample_seed = 0xda7aULL;
};

/// Build the dataset for one (benchmark, mesh, parallel-config) scenario.
/// Every profiled stage charges compile + measurement cost to `profiler`.
/// Stages that do not fit in device memory are skipped.
[[nodiscard]] StageDataset BuildStageDataset(const BenchmarkModel& benchmark,
                                             const parallel::IntraOpCompiler& compiler,
                                             parallel::ParallelConfig config,
                                             sim::Profiler& profiler,
                                             const DatasetBuildConfig& build);

/// As above, but each stage's label is its latency under the *best* paper
/// configuration for the mesh — the "optimal intra-stage execution latency"
/// PredTOP's plan-search predictor regresses (paper §III).
[[nodiscard]] StageDataset BuildStageDatasetBestConfig(
    const BenchmarkModel& benchmark, const parallel::IntraOpCompiler& compiler,
    std::span<const parallel::ParallelConfig> configs, sim::Profiler& profiler,
    const DatasetBuildConfig& build);

/// Encode one stage program into a predictor input (pruned DAG -> features).
[[nodiscard]] graph::EncodedGraph EncodeStage(const ir::StageProgram& program);

/// Feature width the predictors must be configured with.
[[nodiscard]] std::int64_t StageFeatureDim() noexcept;

}  // namespace predtop::core
