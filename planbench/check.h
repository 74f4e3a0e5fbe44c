#pragma once
// Sample statistics and the plan checker of the plan-search benchmark.

#include <string>
#include <vector>

#include "parallel/plan.h"

namespace planbench {

/// Linear-interpolated quantile q in [0, 1] of `samples` (need not be sorted).
/// 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> samples, double q);

/// The tail percentile (as a fraction) reported for `n` samples: the
/// highest whole percentile that still has at least 10 samples above it,
/// capped at the 90th. 0.5 when n is too small for even the median to have
/// 10 samples above it.
[[nodiscard]] double TailPercentile(std::size_t n);

/// Relative tolerance on iteration latency shared with the fig10 compile
/// drill (the compiled forward equals the tape within 1e-6 per query).
inline constexpr double kLatencyRelTol = 1e-4;

/// Empty when `plan` matches `reference`: valid, the same stages (layer
/// slices and meshes, in order), no degraded stage, and iteration latency
/// within `rel_tol` of the reference. Otherwise a one-line reason.
[[nodiscard]] std::string CheckPlanMatches(const predtop::parallel::PipelinePlan& plan,
                                           const predtop::parallel::PipelinePlan& reference,
                                           double rel_tol = kLatencyRelTol);

/// Empty when the two plans are identical to the last bit: same stages,
/// configs, and bit-equal stage and iteration latencies.
[[nodiscard]] std::string CheckPlanBitEqual(const predtop::parallel::PipelinePlan& plan,
                                            const predtop::parallel::PipelinePlan& reference);

}  // namespace planbench
