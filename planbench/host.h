#pragma once
// Host and configuration record of a benchmark run, and the guard that
// refuses to measure a configuration an A/B comparison could not trust.

#include <string>
#include <vector>

namespace planbench {

struct HostRecord {
  unsigned nproc = 0;
  std::string isa;  // "avx512", "avx2" or "baseline"
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::size_t service_threads = 0;
};

[[nodiscard]] HostRecord DetectHost(std::string commit, std::size_t service_threads);

/// One-line JSON object {"host": {...}}.
[[nodiscard]] std::string HostJson(const HostRecord& host);

/// Reasons this process must not measure: a non-Release build, or any
/// PREDTOP_* environment variable other than PREDTOP_LOG (they switch engine
/// paths, GEMM tiers, tuning, fault injection or deadlines). Empty = OK.
[[nodiscard]] std::vector<std::string> ConfigurationProblems();

}  // namespace planbench
