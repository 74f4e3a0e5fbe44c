#include "host.h"

#include <cstring>
#include <sstream>
#include <thread>

extern char** environ;

namespace planbench {

HostRecord DetectHost(std::string commit, std::size_t service_threads) {
  HostRecord host;
  host.nproc = std::thread::hardware_concurrency();
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    host.isa = "avx512";
  } else if (__builtin_cpu_supports("avx2")) {
    host.isa = "avx2";
  } else {
    host.isa = "baseline";
  }
  host.compiler = PLANBENCH_COMPILER;
  host.build_type = PLANBENCH_BUILD_TYPE;
  host.commit = std::move(commit);
  host.service_threads = service_threads;
  return host;
}

std::string HostJson(const HostRecord& host) {
  std::ostringstream out;
  out << "{\"host\": {\"nproc\": " << host.nproc << ", \"isa\": \"" << host.isa
      << "\", \"compiler\": \"" << host.compiler << "\", \"build_type\": \""
      << host.build_type << "\", \"commit\": \"" << host.commit
      << "\", \"service_threads\": " << host.service_threads << "}}";
  return out.str();
}

std::vector<std::string> ConfigurationProblems() {
  std::vector<std::string> problems;
  if (std::strcmp(PLANBENCH_BUILD_TYPE, "Release") != 0) {
    problems.push_back(std::string("build type is '") + PLANBENCH_BUILD_TYPE +
                       "', not Release");
  }
#ifndef NDEBUG
  problems.push_back("assertions are enabled (NDEBUG not defined)");
#endif
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("PREDTOP_", 0) != 0 || entry.rfind("PREDTOP_LOG=", 0) == 0) continue;
    problems.push_back("environment sets " + entry.substr(0, entry.find('=')));
  }
  return problems;
}

}  // namespace planbench
