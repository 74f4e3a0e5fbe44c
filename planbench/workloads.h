#pragma once
// The plan-search benchmark's three workloads (see README.md):
//   search_cold    — fig10 searches of all three pairs, each from a fresh
//                    PlanSearch and an emptied prediction cache, then a
//                    deploy of the chosen plan;
//   whatif_warm    — what-if sweeps (microbatches x max stages) against a
//                    warm service: every query is a cache hit;
//   cluster_search — GPT-3 searches through ClusterOracle -> Router -> two
//                    in-process workers over Unix sockets, worker caches
//                    cleared before each search.
// All three are closed loops, one search at a time, from one process.

#include <cstdint>
#include <string>
#include <vector>

namespace planbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the pinned `.ptck` predictors.
  std::string predictors_dir;
  /// Directory for run artifacts: worker sockets, samples, Chrome traces.
  std::string run_dir;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  /// End-to-end metrics untraced; per-layer metrics traced.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // sample counts and percentiles, printed
  std::size_t service_threads = 0;
};

[[nodiscard]] const std::vector<std::string>& WorkloadNames();

/// Run one workload for `options.seconds`. Throws on set-up errors (a
/// predictor that does not load, a reference that has no plan).
[[nodiscard]] RunReport RunWorkload(const RunOptions& options);

/// Train the fig10 DAG-Transformer predictors of the three (model,
/// platform) pairs with fig10's plan-search settings and seed, and write one
/// checkpoint per mesh into `dir`.
void RegeneratePredictors(const std::string& dir);

}  // namespace planbench
