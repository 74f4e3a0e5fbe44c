// Microbenchmarks for the performance-critical kernels. Two layers:
//
//  1. A headline comparison suite (runs first, always) that times the GEMM
//     tiers (naive i-k-j vs packed vs packed+threads), warm tape vs compiled
//     PredictSeconds on a real GPT-3 stage graph, the plan-search predictor
//     shape (tape, compiled, interleaved batch on 1 and 4 threads) at 230 and
//     846 nodes, and the batch executor's sequential / interleaved / auto
//     modes, and writes the results with a
//     host record (nproc, ISA) to BENCH_kernels.json (path overridable via
//     PREDTOP_BENCH_JSON). Each row reports the minimum and the median over
//     its repetitions. PREDTOP_BENCH_SMOKE=1 shrinks repetitions so CI can
//     exercise the harness in seconds.
//  2. The google-benchmark registrations kept from the original harness
//     (softmax, encoding, compilation, DP, forwards), skipped in smoke mode.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/batch.h"
#include "compile/tune.h"
#include "core/dataset.h"
#include "core/predictors.h"
#include "core/regressor.h"
#include "graph/reachability.h"
#include "ir/to_dag.h"
#include "parallel/inter_op.h"
#include "parallel/intra_op.h"
#include "tensor/ops.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace predtop;

namespace {

// ---- headline comparisons -> BENCH_kernels.json ----

/// Wall time of one call of `fn` over `reps` repetitions (one warm-up call
/// first): the fastest and the median repetition, in seconds.
struct Timing {
  double min_s = 0.0;
  double median_s = 0.0;
};

template <typename Fn>
Timing Time(int reps, Fn&& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  return {samples.front(), samples[samples.size() / 2]};
}

/// `"name": {"min_s": ..., "median_s": ...}`
std::string JsonTiming(const char* name, const Timing& t) {
  std::ostringstream out;
  out << "\"" << name << "\": {\"min_s\": " << t.min_s << ", \"median_s\": " << t.median_s
      << "}";
  return out.str();
}

/// Widest vector ISA this binary was compiled for (the build uses
/// -march=native, so this is the host's).
const char* CompiledIsa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#else
  return "scalar";
#endif
}

struct GemmRow {
  std::int64_t size = 0;  // m = k = n
  Timing naive;
  Timing packed;
  Timing threaded;
};

std::vector<GemmRow> RunGemmSweep(bool smoke) {
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{64, 256} : std::vector<std::int64_t>{64, 128, 256, 512};
  const int reps = smoke ? 3 : 15;
  std::vector<GemmRow> rows;
  util::Rng rng(21);
  for (const std::int64_t s : sizes) {
    const tensor::Tensor a = tensor::Tensor::Randn({s, s}, rng);
    const tensor::Tensor b = tensor::Tensor::Randn({s, s}, rng);
    const tensor::PackedB packed = tensor::PackB(b);
    tensor::Tensor c({s, s});
    GemmRow row;
    row.size = s;
    row.naive = Time(reps, [&] { benchmark::DoNotOptimize(tensor::MatMulNaive(a, b)); });
    row.packed = Time(reps, [&] {
      tensor::MatMulPackedInto(a.data().data(), s, packed, c.data().data(),
                               /*allow_threads=*/false);
      benchmark::DoNotOptimize(c.data().data());
    });
    row.threaded = Time(reps, [&] {
      tensor::MatMulPackedInto(a.data().data(), s, packed, c.data().data(),
                               /*allow_threads=*/true);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double gflop = 2.0 * static_cast<double>(s) * s * s * 1e-9;
    std::cerr << "[bench] gemm " << s << "^3 (min): naive " << gflop / row.naive.min_s
              << " GFLOP/s, packed " << gflop / row.packed.min_s << " GFLOP/s ("
              << row.naive.min_s / row.packed.min_s << "x), +threads "
              << gflop / row.threaded.min_s << " GFLOP/s\n";
    rows.push_back(row);
  }
  return rows;
}

const ir::StageProgram& SampleStage() {
  static const ir::StageProgram program = [] {
    ir::Gpt3Config config;
    return ir::BuildGpt3Stage(config, {0, 4});
  }();
  return program;
}

struct PredictResult {
  std::int64_t graph_nodes = 0;
  Timing tape;                 // autograd Forward
  Timing compiled;             // compiled InferProgram, resolved register tile
  Timing compiled_narrow_tile; // compiled, 6x16 two-vector GEMM tile
};

PredictResult RunPredictComparison(bool smoke) {
  // Paper-size DAG Transformer (4 x 64, 4 heads) on a real GPT-3 stage graph:
  // the shape the prediction service actually serves.
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  core::LatencyRegressor regressor(core::PredictorKind::kDagTransformer, options);
  const int reps = smoke ? 3 : 41;
  PredictResult result;
  result.graph_nodes = encoded.num_nodes;
  result.tape = Time(reps, [&] {
    benchmark::DoNotOptimize(regressor.PredictSecondsTape(encoded));
  });
  result.compiled = Time(reps, [&] {
    benchmark::DoNotOptimize(regressor.PredictSeconds(encoded));
  });
  // The 6x16 tile is the only one on hosts without AVX-512; results are
  // bit-identical, only speed differs.
  const bool wide_before = tensor::GemmWideTiles();
  tensor::SetGemmWideTiles(false);
  result.compiled_narrow_tile = Time(reps, [&] {
    benchmark::DoNotOptimize(regressor.PredictSeconds(encoded));
  });
  tensor::SetGemmWideTiles(wide_before);
  std::cerr << "[bench] warm PredictSeconds (" << result.graph_nodes
            << " nodes, median): tape " << result.tape.median_s * 1e3 << " ms, compiled "
            << result.compiled.median_s * 1e3 << " ms ("
            << result.tape.median_s / result.compiled.median_s << "x), compiled 6x16 tile "
            << result.compiled_narrow_tile.median_s * 1e3 << " ms\n";
  return result;
}

struct Fig10Row {
  std::int64_t graph_nodes = 0;
  std::int64_t batch = 0;
  Timing tape;               // autograd Forward, one query
  Timing compiled;           // compiled InferProgram, one query
  Timing interleaved_pool1;  // `batch` queries interleaved on a 1-thread pool
  Timing interleaved_pool4;  // the same batch on a 4-thread pool
};

/// `batch` copies of `base` with per-query feature perturbations (distinct
/// inputs, one shape class).
std::vector<graph::EncodedGraph> PerturbedBatch(const graph::EncodedGraph& base,
                                                std::int64_t batch) {
  std::vector<graph::EncodedGraph> graphs(static_cast<std::size_t>(batch), base);
  for (std::size_t q = 0; q < graphs.size(); ++q) {
    const float scale = 1.0f + 0.02f * static_cast<float>(q % 17);
    for (float& x : graphs[q].features.data()) x *= scale;
  }
  return graphs;
}

std::vector<Fig10Row> RunFig10PredictorSweep(bool smoke) {
  // The plan-search benchmark's predictor shape (dim 16, 2 layers, 2 heads:
  // head dim 8, logit scale 1/sqrt(8)) on GPT-3 stages of 230 and 846 nodes,
  // the latter the largest slice a fig10 search prices.
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 16;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
  const std::int64_t batch = smoke ? 8 : 64;
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  std::vector<Fig10Row> rows;
  for (const ir::StageSlice slice : {ir::StageSlice{0, 4}, ir::StageSlice{0, 15}}) {
    const graph::EncodedGraph encoded =
        core::EncodeStage(ir::BuildGpt3Stage(ir::Gpt3Config{}, slice));
    Fig10Row row;
    row.graph_nodes = encoded.num_nodes;
    row.batch = batch;
    const int reps = smoke ? 3 : 31;
    row.tape = Time(reps, [&] { benchmark::DoNotOptimize(model->Forward(encoded)); });
    row.compiled = Time(reps, [&] { benchmark::DoNotOptimize(model->InferScalar(encoded)); });
    const std::vector<graph::EncodedGraph> graphs = PerturbedBatch(encoded, batch);
    std::vector<const graph::EncodedGraph*> ptrs;
    for (const auto& g : graphs) ptrs.push_back(&g);
    std::vector<float> out(graphs.size());
    const int batch_reps = smoke ? 2 : 7;
    for (auto [pool, timing] : {std::pair{&pool1, &row.interleaved_pool1},
                                std::pair{&pool4, &row.interleaved_pool4}}) {
      compile::BatchOptions opts;
      opts.mode = compile::BatchMode::kInterleaved;
      opts.pool = pool;
      *timing = Time(batch_reps, [&] {
        model->InferScalarBatch(ptrs.data(), ptrs.size(), out.data(), opts);
        benchmark::DoNotOptimize(out.data());
      });
    }
    const double per = 1e6 / static_cast<double>(batch);
    std::cerr << "[bench] fig10 predictor, " << row.graph_nodes << " nodes (median): tape "
              << row.tape.median_s * 1e3 << " ms, compiled " << row.compiled.median_s * 1e3
              << " ms, interleaved batch " << batch << " pool=1 "
              << row.interleaved_pool1.median_s * per << " us/query, pool=4 "
              << row.interleaved_pool4.median_s * per << " us/query ("
              << row.interleaved_pool1.median_s / row.interleaved_pool4.median_s << "x)\n";
    rows.push_back(row);
  }
  return rows;
}

struct BatchRow {
  std::int64_t batch = 0;
  Timing sequential;   // InferScalar per query on the calling thread
  Timing interleaved;  // independent forwards fanned across a pool
  Timing automatic;    // whatever ExecuteBatch's kAuto crossover picks
};

std::vector<BatchRow> RunBatchSweep(bool smoke) {
  // Same-shape batches of the paper-size stage with per-query feature
  // perturbations, run through the compiled executor sequentially and
  // interleaved.
  const graph::EncodedGraph base = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
  const std::vector<std::int64_t> batches =
      smoke ? std::vector<std::int64_t>{4, 16} : std::vector<std::int64_t>{1, 4, 16, 64};
  const int reps = smoke ? 3 : 11;
  const std::int64_t max_batch = batches.back();

  const std::vector<graph::EncodedGraph> graphs = PerturbedBatch(base, max_batch);
  std::vector<const graph::EncodedGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  util::ThreadPool pool(tensor::GemmThreads());
  std::vector<BatchRow> rows;
  for (const std::int64_t b : batches) {
    BatchRow row;
    row.batch = b;
    const auto count = static_cast<std::size_t>(b);
    std::vector<float> out(count);
    row.sequential = Time(reps, [&] {
      for (std::size_t q = 0; q < count; ++q) {
        benchmark::DoNotOptimize(model->InferScalar(graphs[q]));
      }
    });
    compile::BatchOptions interleaved;
    interleaved.mode = compile::BatchMode::kInterleaved;
    interleaved.pool = &pool;
    row.interleaved = Time(reps, [&] {
      model->InferScalarBatch(ptrs.data(), count, out.data(), interleaved);
      benchmark::DoNotOptimize(out.data());
    });
    row.automatic = Time(reps, [&] {
      model->InferScalarBatch(ptrs.data(), count, out.data(), compile::BatchOptions{});
      benchmark::DoNotOptimize(out.data());
    });
    const double per = 1e6 / static_cast<double>(b);
    std::cerr << "[bench] batch " << b << " (median): sequential "
              << row.sequential.median_s * per << " us/query, interleaved "
              << row.interleaved.median_s * per << " us/query ("
              << row.sequential.median_s / row.interleaved.median_s << "x), auto "
              << row.automatic.median_s * per << " us/query\n";
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::string& path, const std::vector<GemmRow>& gemm,
               const PredictResult& predict, const std::vector<Fig10Row>& fig10,
               const std::vector<BatchRow>& batch, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": \"" << CompiledIsa() << "\", \"gemm_threads\": "
      << tensor::GemmThreads() << "},\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const GemmRow& row = gemm[i];
    out << "    {\"size\": " << row.size << ", " << JsonTiming("naive", row.naive) << ", "
        << JsonTiming("packed", row.packed) << ", " << JsonTiming("packed_threads", row.threaded)
        << ", \"speedup_packed\": " << row.naive.median_s / row.packed.median_s << "}"
        << (i + 1 < gemm.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"predict_gpt3_stage\": {\"graph_nodes\": " << predict.graph_nodes
      << ", " << JsonTiming("tape", predict.tape) << ", "
      << JsonTiming("compiled", predict.compiled) << ", "
      << JsonTiming("compiled_narrow_tile", predict.compiled_narrow_tile)
      << ", \"speedup_compiled_vs_tape\": "
      << predict.tape.median_s / predict.compiled.median_s << "},\n";
  out << "  \"predict_fig10_predictor\": [\n";
  for (std::size_t i = 0; i < fig10.size(); ++i) {
    const Fig10Row& row = fig10[i];
    out << "    {\"graph_nodes\": " << row.graph_nodes << ", " << JsonTiming("tape", row.tape)
        << ", " << JsonTiming("compiled", row.compiled) << ", \"batch\": " << row.batch << ", "
        << JsonTiming("interleaved_pool1", row.interleaved_pool1) << ", "
        << JsonTiming("interleaved_pool4", row.interleaved_pool4)
        << ", \"speedup_compiled_vs_tape\": " << row.tape.median_s / row.compiled.median_s
        << ", \"scaling_pool4_vs_pool1\": "
        << row.interleaved_pool1.median_s / row.interleaved_pool4.median_s << "}"
        << (i + 1 < fig10.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"batch_predict\": [\n";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchRow& row = batch[i];
    out << "    {\"batch\": " << row.batch << ", " << JsonTiming("sequential", row.sequential)
        << ", " << JsonTiming("interleaved", row.interleaved) << ", "
        << JsonTiming("auto", row.automatic) << ", \"speedup_interleaved\": "
        << row.sequential.median_s / row.interleaved.median_s << ", \"speedup_auto\": "
        << row.sequential.median_s / row.automatic.median_s << "}"
        << (i + 1 < batch.size() ? "," : "") << "\n";
  }
  const compile::TuneTable& tune = compile::ResolvedTuneTable();
  out << "  ],\n  \"tune\": {\"wide_tiles\": " << (tune.wide_tiles ? "true" : "false")
      << ", \"par_min_elems\": " << tune.par_min_elems
      << ", \"interleave_min_batch\": " << tune.interleave_min_batch
      << ", \"interleave_min_flops\": " << tune.interleave_min_flops
      << ", \"autotuned\": " << (tune.autotuned ? "true" : "false")
      << ", \"sweeps\": " << compile::AutotuneSweeps() << "}\n}\n";
  std::cerr << "[bench] wrote " << path << "\n";
}

// ---- google-benchmark registrations (full mode only) ----

void BM_MatMul(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  util::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::Randn({m, k}, rng);
  const tensor::Tensor b = tensor::Tensor::Randn({k, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMul)->Args({256, 8, 256})->Args({256, 256, 8})->Args({256, 64, 64});

void BM_MaskedSoftmax(benchmark::State& state) {
  const auto n = state.range(0);
  util::Rng rng(2);
  const tensor::Tensor logits = tensor::Tensor::Randn({n, n}, rng);
  tensor::Tensor mask({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if ((i + j) % 3 == 0) mask.at(i, j) = -std::numeric_limits<float>::infinity();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::RowSoftmax(logits, &mask));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_MaskedSoftmax)->Arg(128)->Arg(256)->Arg(512);

void BM_ReachabilityClosure(benchmark::State& state) {
  const graph::OpDag dag = ir::BuildPrunedOpDag(SampleStage());
  for (auto _ : state) {
    const graph::ReachabilityClosure closure(dag);
    benchmark::DoNotOptimize(closure.CountReachablePairs());
  }
  state.SetLabel(std::to_string(dag.NumNodes()) + " nodes");
}
BENCHMARK(BM_ReachabilityClosure);

void BM_EncodeStage(benchmark::State& state) {
  const ir::StageProgram& program = SampleStage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeStage(program).num_nodes);
  }
}
BENCHMARK(BM_EncodeStage);

void BM_IntraOpCompile(benchmark::State& state) {
  const parallel::IntraOpCompiler compiler(sim::Platform2(), sim::Mesh{1, 2});
  const ir::StageProgram& program = SampleStage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.Compile(program, {1, 2, 1}).latency_s);
  }
  state.SetLabel(std::to_string(program.NumEquations()) + " equations");
}
BENCHMARK(BM_IntraOpCompile);

void BM_InterOpDp(benchmark::State& state) {
  // Synthetic oracle isolates the DP itself from stage compilation.
  const parallel::StageLatencyOracle oracle = [](ir::StageSlice slice, sim::Mesh mesh) {
    const double d = mesh.NumDevices();
    return parallel::StageLatencyResult{slice.NumLayers() * (0.4 + 0.6 * d) / d, {}};
  };
  parallel::InterOpOptions options;
  options.num_layers = static_cast<std::int32_t>(state.range(0));
  options.num_microbatches = 8;
  const parallel::InterOpOptimizer optimizer(sim::Platform2(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Optimize(oracle).iteration_latency_s);
  }
}
BENCHMARK(BM_InterOpDp)->Arg(12)->Arg(24);

void BM_DagTransformerForward(benchmark::State& state) {
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 32;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Forward(encoded).value().data()[0]);
  }
  state.SetLabel(std::to_string(encoded.num_nodes) + " nodes");
}
BENCHMARK(BM_DagTransformerForward);

void BM_DagTransformerCompiledForward(benchmark::State& state) {
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.dagt_dim = 32;
  options.dagt_layers = 2;
  options.dagt_heads = 2;
  auto model = core::MakePredictor(core::PredictorKind::kDagTransformer, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->InferScalar(encoded));
  }
  state.SetLabel(std::to_string(encoded.num_nodes) + " nodes");
}
BENCHMARK(BM_DagTransformerCompiledForward);

void BM_GcnForward(benchmark::State& state) {
  const graph::EncodedGraph encoded = core::EncodeStage(SampleStage());
  core::PredictorOptions options;
  options.feature_dim = core::StageFeatureDim();
  options.gcn_dim = 64;
  options.gcn_layers = 4;
  auto model = core::MakePredictor(core::PredictorKind::kGcn, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Forward(encoded).value().data()[0]);
  }
}
BENCHMARK(BM_GcnForward);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = util::EnvInt("PREDTOP_BENCH_SMOKE", 0) != 0;
  const std::string json_path =
      util::EnvString("PREDTOP_BENCH_JSON").value_or("BENCH_kernels.json");
  const std::vector<GemmRow> gemm = RunGemmSweep(smoke);
  const PredictResult predict = RunPredictComparison(smoke);
  const std::vector<Fig10Row> fig10 = RunFig10PredictorSweep(smoke);
  const std::vector<BatchRow> batch = RunBatchSweep(smoke);
  WriteJson(json_path, gemm, predict, fig10, batch, smoke);
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
