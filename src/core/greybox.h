#pragma once
// GreyBoxEstimator — the paper's headline abstraction (§III): black-box
// per-stage latency prediction composed with the white-box pipeline formula
// (Eqn. 4) to estimate the end-to-end iteration latency of any hybrid
// parallelization plan without profiling it.

#include <memory>
#include <utility>
#include <vector>

#include "core/encoding_table.h"
#include "core/regressor.h"
#include "parallel/plan.h"

namespace predtop::core {

class GreyBoxEstimator {
 public:
  /// One trained regressor per mesh the plan may place stages on.
  GreyBoxEstimator(BenchmarkModel benchmark,
                   std::vector<std::pair<sim::Mesh, std::shared_ptr<LatencyRegressor>>> regressors);

  /// Black-box phase: predicted optimal intra-stage latency (seconds).
  [[nodiscard]] double EstimateStageLatency(ir::StageSlice slice, sim::Mesh mesh);

  /// Grey-box composition: predict every stage, then apply the white-box
  /// 1F1B formula with the plan's microbatch count.
  [[nodiscard]] double EstimateIterationLatency(const parallel::PipelinePlan& plan);

 private:
  std::vector<std::pair<sim::Mesh, std::shared_ptr<LatencyRegressor>>> regressors_;
  EncodingTable stages_;
};

}  // namespace predtop::core
