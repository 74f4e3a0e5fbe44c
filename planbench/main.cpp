// plan_bench: the plan-search benchmark program (see README.md).
//
//   plan_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --predictors <dir> --run-dir <dir> [--commit <id>]
//   plan_bench --regenerate-predictors <dir>
//
// Prints a host record line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// untraced, per-layer metrics traced. Exits 2 on a bad argument or a refused
// configuration, 1 on a set-up error; neither prints a result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "plan_bench: " << problem
            << "\nusage: plan_bench --workload <search_cold|whatif_warm|cluster_search> --seed "
               "<n> --seconds <s> --trace <0|1> --predictors <dir> --run-dir <dir> "
               "[--commit <id>]\n"
               "       plan_bench --regenerate-predictors <dir>\n";
  return 2;
}

std::string ResultJson(const planbench::RunReport& report) {
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const planbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) return Usage("bad argument '" + flag + "'");
    args[flag.substr(2)] = argv[++i];
  }

  const auto problems = planbench::ConfigurationProblems();
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::cerr << "plan_bench: refused: " << problem << "\n";
    }
    return 2;
  }

  try {
    if (args.count("regenerate-predictors") != 0) {
      planbench::RegeneratePredictors(args["regenerate-predictors"]);
      return 0;
    }

    planbench::RunOptions options;
    const auto known = planbench::WorkloadNames();
    options.workload = args["workload"];
    if (std::find(known.begin(), known.end(), options.workload) == known.end()) {
      return Usage("unknown workload '" + options.workload + "'");
    }
    if (args.count("predictors") == 0) return Usage("--predictors is required");
    if (args.count("run-dir") == 0) return Usage("--run-dir is required");
    options.predictors_dir = args["predictors"];
    options.run_dir = args["run-dir"];
    options.seed = std::stoull(args.count("seed") != 0 ? args["seed"] : "1");
    options.seconds = std::stod(args.count("seconds") != 0 ? args["seconds"] : "10");
    options.trace = args.count("trace") != 0 && args["trace"] != "0";
    if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

    const planbench::RunReport report = planbench::RunWorkload(options);
    const planbench::HostRecord host = planbench::DetectHost(
        args.count("commit") != 0 ? args["commit"] : "unknown", report.service_threads);
    for (const std::string& note : report.notes) std::cerr << "plan_bench: " << note << "\n";
    for (const std::string& failure : report.failures) {
      std::cerr << "plan_bench: FAILED " << failure << "\n";
    }
    std::cout << planbench::HostJson(host) << "\n" << ResultJson(report) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "plan_bench: error: " << e.what() << "\n";
    return 1;
  }
}
