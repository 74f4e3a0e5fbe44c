#include "check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace planbench {

using predtop::parallel::PipelinePlan;

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double TailPercentile(std::size_t n) {
  constexpr std::size_t kMinBeyond = 10;
  if (n < 2 * kMinBeyond) return 0.5;
  // Whole percents, so the reported percentile reads cleanly; the integer
  // floor keeps at least kMinBeyond samples above it.
  const auto pct = static_cast<std::int64_t>(100 * (n - kMinBeyond) / n);
  return std::min(0.90, static_cast<double>(pct) / 100.0);
}

namespace {

std::string SameStages(const PipelinePlan& plan, const PipelinePlan& reference) {
  if (!plan.Valid()) return "invalid plan";
  if (plan.stages.size() != reference.stages.size()) {
    return "stage count " + std::to_string(plan.stages.size()) + " != reference " +
           std::to_string(reference.stages.size());
  }
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    const auto& a = plan.stages[i];
    const auto& b = reference.stages[i];
    if (a.slice.first_layer != b.slice.first_layer || a.slice.last_layer != b.slice.last_layer) {
      return "stage " + std::to_string(i) + " slice differs";
    }
    if (!(a.mesh == b.mesh)) return "stage " + std::to_string(i) + " mesh differs";
    if (a.degraded) return "stage " + std::to_string(i) + " degraded";
  }
  return {};
}

}  // namespace

std::string CheckPlanMatches(const PipelinePlan& plan, const PipelinePlan& reference,
                             double rel_tol) {
  if (std::string why = SameStages(plan, reference); !why.empty()) return why;
  const double gap = std::abs(plan.iteration_latency_s - reference.iteration_latency_s);
  if (!(gap <= rel_tol * std::abs(reference.iteration_latency_s))) {
    std::ostringstream why;
    why.precision(17);
    why << "iteration latency " << plan.iteration_latency_s << " vs reference "
        << reference.iteration_latency_s;
    return why.str();
  }
  return {};
}

std::string CheckPlanBitEqual(const PipelinePlan& plan, const PipelinePlan& reference) {
  if (std::string why = SameStages(plan, reference); !why.empty()) return why;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (bits(plan.iteration_latency_s) != bits(reference.iteration_latency_s)) {
    return "iteration latency not bit-equal";
  }
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    if (bits(plan.stages[i].latency_s) != bits(reference.stages[i].latency_s) ||
        !(plan.stages[i].config == reference.stages[i].config)) {
      return "stage " + std::to_string(i) + " latency or config not bit-equal";
    }
  }
  return {};
}

}  // namespace planbench
