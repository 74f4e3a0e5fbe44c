#include "core/dataset.h"

#include <cmath>

#include "ir/stages.h"
#include "ir/to_dag.h"
#include "util/logging.h"

namespace predtop::core {

std::vector<std::int32_t> BenchmarkModel::StageClass(ir::StageSlice slice) const {
  std::vector<std::int32_t> key = {slice.first_layer == 0, slice.last_layer == num_layers};
  for (std::int32_t layer = slice.first_layer; layer < slice.last_layer; ++layer) {
    key.push_back(layer_kinds.empty() ? layer : layer_kinds.at(static_cast<std::size_t>(layer)));
  }
  return key;
}

BenchmarkModel Gpt3Benchmark(ir::Gpt3Config config) {
  BenchmarkModel model;
  model.name = "GPT-3";
  model.num_layers = static_cast<std::int32_t>(config.num_layers);
  model.build_stage = [config](ir::StageSlice slice) { return ir::BuildGpt3Stage(config, slice); };
  model.layer_kinds = ir::LayerKinds(config);
  return model;
}

BenchmarkModel MoeBenchmark(ir::MoeConfig config) {
  BenchmarkModel model;
  model.name = "MoE";
  model.num_layers = static_cast<std::int32_t>(config.num_layers);
  model.build_stage = [config](ir::StageSlice slice) { return ir::BuildMoeStage(config, slice); };
  model.layer_kinds = ir::LayerKinds(config);
  return model;
}

BenchmarkModel WideResNetBenchmark(ir::WideResNetConfig config) {
  BenchmarkModel model;
  model.name = "Wide-ResNet";
  model.num_layers = static_cast<std::int32_t>(config.num_blocks);
  model.build_stage = [config](ir::StageSlice slice) {
    return ir::BuildWideResNetStage(config, slice);
  };
  model.layer_kinds = ir::LayerKinds(config);
  return model;
}

graph::EncodedGraph EncodeStage(const ir::StageProgram& program) {
  return graph::EncodeGraph(ir::BuildPrunedOpDag(program), ir::kNumOpTypes, ir::kNumDTypes);
}

std::int64_t StageFeatureDim() noexcept {
  return graph::NodeFeatureWidth(ir::kNumOpTypes, ir::kNumDTypes);
}

namespace {

/// Shared builder: `compile` maps a stage program to its (possibly +inf)
/// latency label.
StageDataset BuildDatasetImpl(
    const BenchmarkModel& benchmark, sim::Profiler& profiler, const DatasetBuildConfig& build,
    const std::function<double(const ir::StageProgram&)>& compile) {
  const std::int32_t max_span =
      build.max_span > 0 ? build.max_span : benchmark.num_layers;
  const auto all = ir::EnumerateStageSlices(benchmark.num_layers, max_span);
  util::Rng rng(build.sample_seed);
  const auto selected = build.num_samples > 0
                            ? ir::SampleStageSlices(all, build.num_samples, rng)
                            : all;

  StageDataset dataset;
  dataset.samples.reserve(selected.size());
  for (const ir::StageSlice slice : selected) {
    const ir::StageProgram program = benchmark.build_stage(slice);
    const double latency = compile(program);
    if (!std::isfinite(latency)) {
      PREDTOP_LOG_DEBUG << "skipping " << program.name << ": out of device memory";
      continue;
    }
    StageSample sample;
    sample.slice = slice;
    sample.name = program.name;
    sample.num_equations = program.NumEquations();
    sample.true_latency_s = latency;
    sample.measured_latency_s =
        static_cast<float>(profiler.ProfileStage(latency, program.NumEquations()));
    sample.encoded = EncodeStage(program);
    dataset.labels.push_back(sample.measured_latency_s);
    dataset.samples.push_back(std::move(sample));
  }
  return dataset;
}

}  // namespace

StageDataset BuildStageDataset(const BenchmarkModel& benchmark,
                               const parallel::IntraOpCompiler& compiler,
                               parallel::ParallelConfig config, sim::Profiler& profiler,
                               const DatasetBuildConfig& build) {
  return BuildDatasetImpl(benchmark, profiler, build, [&](const ir::StageProgram& program) {
    return compiler.Compile(program, config).latency_s;
  });
}

StageDataset BuildStageDatasetBestConfig(const BenchmarkModel& benchmark,
                                         const parallel::IntraOpCompiler& compiler,
                                         std::span<const parallel::ParallelConfig> configs,
                                         sim::Profiler& profiler,
                                         const DatasetBuildConfig& build) {
  return BuildDatasetImpl(benchmark, profiler, build, [&](const ir::StageProgram& program) {
    return compiler.CompileBest(program, configs).latency_s;
  });
}

}  // namespace predtop::core
