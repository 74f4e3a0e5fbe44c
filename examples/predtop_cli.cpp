// predtop_cli — command-line inspection tool over the library:
//
//   predtop_cli print-stage  <model> <first> <last>    jaxpr-style listing
//   predtop_cli dot          <model> <first> <last>    GraphViz DOT of the pruned DAG
//   predtop_cli simulate     <model> <first> <last> [platform] [mesh]
//                                                      optimal stage latency per config
//   predtop_cli stats        <model> <first> <last>    FLOPs / bytes / liveness
//   predtop_cli plan         <model> [platform] [B]    full pipeline plan search
//
// <model> is gpt3 | moe | wrn; [platform] is 1 | 2; [mesh] is NxG (e.g. 1x2).

#include <cstring>
#include <map>
#include <memory>
#include <iostream>

#include "core/dataset.h"
#include "graph/dot.h"
#include "ir/liveness.h"
#include "ir/printer.h"
#include "ir/to_dag.h"
#include "parallel/inter_op.h"
#include "parallel/intra_op.h"
#include "util/table.h"

using namespace predtop;

namespace {

core::BenchmarkModel ModelByName(const std::string& name) {
  if (name == "gpt3") return core::Gpt3Benchmark(ir::Gpt3Config{});
  if (name == "moe") return core::MoeBenchmark(ir::MoeConfig{});
  if (name == "wrn") return core::WideResNetBenchmark();
  throw std::invalid_argument("unknown model '" + name + "' (gpt3 | moe | wrn)");
}

sim::ClusterSpec PlatformByIndex(const std::string& index) {
  if (index == "1") return sim::Platform1();
  if (index == "2") return sim::Platform2();
  throw std::invalid_argument("unknown platform '" + index + "' (1 | 2)");
}

sim::Mesh ParseMesh(const std::string& text) {
  const auto x = text.find('x');
  if (x == std::string::npos) throw std::invalid_argument("mesh must look like 1x2");
  return sim::Mesh{std::stoi(text.substr(0, x)), std::stoi(text.substr(x + 1))};
}

int Usage() {
  std::cerr << "usage: predtop_cli <print-stage|dot|simulate|stats|plan> <model> ...\n"
               "  print-stage <model> <first> <last>\n"
               "  dot         <model> <first> <last>\n"
               "  simulate    <model> <first> <last> [platform=1] [mesh=1x2]\n"
               "  stats       <model> <first> <last>\n"
               "  plan        <model> [platform=2] [microbatches=8]\n";
  return 2;
}

int CmdPrintStage(const core::BenchmarkModel& model, ir::StageSlice slice) {
  std::cout << ir::PrintProgram(model.build_stage(slice), 120);
  return 0;
}

int CmdDot(const core::BenchmarkModel& model, ir::StageSlice slice) {
  std::cout << graph::ToDot(ir::BuildPrunedOpDag(model.build_stage(slice)),
                            model.name + "_stage");
  return 0;
}

int CmdSimulate(const core::BenchmarkModel& model, ir::StageSlice slice,
                const sim::ClusterSpec& cluster, sim::Mesh mesh) {
  const parallel::IntraOpCompiler compiler(cluster, mesh);
  const auto program = model.build_stage(slice);
  util::TablePrinter table({"parallel configuration", "simulated stage latency"});
  table.SetTitle(program.name + " on " + cluster.name + ", mesh " +
                 std::to_string(mesh.num_nodes) + "x" + std::to_string(mesh.gpus_per_node));
  for (const auto& config : parallel::PaperConfigs(mesh)) {
    const auto plan = compiler.Compile(program, config);
    table.AddRow({config.ToString(),
                  plan.Valid() ? util::FormatSeconds(plan.latency_s) : "out of memory"});
  }
  table.Print(std::cout);
  return 0;
}

int CmdStats(const core::BenchmarkModel& model, ir::StageSlice slice) {
  const auto program = model.build_stage(slice);
  const auto raw = ir::BuildOpDag(program);
  const auto pruned = ir::BuildPrunedOpDag(program);
  util::TablePrinter table({"quantity", "value"});
  table.SetTitle(program.name);
  table.AddRow({"equations", std::to_string(program.NumEquations())});
  table.AddRow({"total FLOPs (fwd)", util::FormatF(ir::TotalFlops(program) / 1e9, 2) + " G"});
  table.AddRow({"weight bytes", util::FormatF(program.LiteralBytes() / 1e6, 1) + " MB"});
  table.AddRow({"peak live activations",
                util::FormatF(ir::PeakActivationBytes(program) / 1e6, 1) + " MB"});
  table.AddRow({"DAG nodes (raw)", std::to_string(raw.NumNodes())});
  table.AddRow({"DAG nodes (pruned)", std::to_string(pruned.NumNodes())});
  table.Print(std::cout);
  return 0;
}

int CmdPlan(const core::BenchmarkModel& model, const sim::ClusterSpec& cluster,
            std::int32_t microbatches) {
  const auto meshes = sim::PaperMeshes(cluster);
  std::vector<std::unique_ptr<parallel::IntraOpCompiler>> compilers;
  for (const sim::Mesh mesh : meshes) {
    compilers.push_back(std::make_unique<parallel::IntraOpCompiler>(cluster, mesh));
  }
  std::map<std::tuple<int, int, int>, parallel::StageLatencyResult> cache;
  const parallel::StageLatencyOracle oracle = [&](ir::StageSlice slice, sim::Mesh mesh) {
    for (std::size_t m = 0; m < meshes.size(); ++m) {
      if (!(meshes[m] == mesh)) continue;
      const auto key = std::make_tuple(slice.first_layer, slice.last_layer, static_cast<int>(m));
      auto it = cache.find(key);
      if (it == cache.end()) {
        const auto configs = parallel::PaperConfigs(mesh);
        const auto plan = compilers[m]->CompileBest(model.build_stage(slice), configs);
        it = cache.emplace(key, parallel::StageLatencyResult{plan.latency_s, plan.config}).first;
      }
      return it->second;
    }
    return parallel::StageLatencyResult{std::numeric_limits<double>::infinity(), {}};
  };
  parallel::InterOpOptions options;
  options.num_layers = model.num_layers;
  options.num_microbatches = microbatches;
  options.submeshes = meshes;
  const auto plan = parallel::InterOpOptimizer(cluster, options).Optimize(oracle);
  if (!plan.Valid()) {
    std::cerr << "no feasible plan\n";
    return 1;
  }
  util::TablePrinter table({"stage", "layers", "mesh", "config", "latency / microbatch"});
  table.SetTitle(model.name + " on " + cluster.name + ": optimal plan, iteration latency " +
                 util::FormatSeconds(plan.iteration_latency_s));
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const auto& stage = plan.stages[s];
    table.AddRow({std::to_string(s),
                  "[" + std::to_string(stage.slice.first_layer) + "," +
                      std::to_string(stage.slice.last_layer) + ")",
                  std::to_string(stage.mesh.num_nodes) + "x" +
                      std::to_string(stage.mesh.gpus_per_node),
                  stage.config.ToString(), util::FormatSeconds(stage.latency_s)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  try {
    const std::string command = argv[1];
    const core::BenchmarkModel model = ModelByName(argv[2]);
    if (command == "plan") {
      const sim::ClusterSpec cluster = PlatformByIndex(argc > 3 ? argv[3] : "2");
      const std::int32_t microbatches = argc > 4 ? std::stoi(argv[4]) : 8;
      return CmdPlan(model, cluster, microbatches);
    }
    if (argc < 5) return Usage();
    const ir::StageSlice slice{std::stoi(argv[3]), std::stoi(argv[4])};
    if (command == "print-stage") return CmdPrintStage(model, slice);
    if (command == "dot") return CmdDot(model, slice);
    if (command == "stats") return CmdStats(model, slice);
    if (command == "simulate") {
      const sim::ClusterSpec cluster = PlatformByIndex(argc > 5 ? argv[5] : "1");
      const sim::Mesh mesh = argc > 6 ? ParseMesh(argv[6]) : sim::Mesh{1, 2};
      return CmdSimulate(model, slice, cluster, mesh);
    }
    return Usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
