#pragma once
// Batch-level compiled execution. ExecuteBatch runs a work list of queries,
// each with its own InferProgram (one per shape class, so a list may mix
// shapes), in one of two ways:
//
//  - kSequential: a plain Execute loop on the calling thread (one plan
//    buffer, one weight snapshot check per query);
//  - kInterleaved: the whole list as one flat ParallelFor over a worker
//    pool, one independent sequential forward per query, each on its
//    worker's own plan buffer.
//
// Both are bit-identical to one Execute call per query — interleaving just
// runs the sequential executor on other threads. kAuto interleaves when the
// runtime TuneTable's crossover says the pool pays for itself (see tune.h).

#include <cstddef>
#include <cstdint>

#include "compile/program.h"

namespace predtop::util {
class ThreadPool;
}  // namespace predtop::util

namespace predtop::compile {

enum class BatchMode {
  kAuto,         ///< interleave past the TuneTable crossover, else sequential
  kSequential,   ///< Execute loop on the calling thread
  kInterleaved,  ///< independent sequential forwards across a pool
};

struct BatchOptions {
  BatchMode mode = BatchMode::kAuto;
  /// Pool for kInterleaved (null = an internal pool sized like the GEMM
  /// pool).
  util::ThreadPool* pool = nullptr;
};

/// Run `count` queries, query q through programs[q] on in[q]; `out`
/// receives one scalar per query. Throws std::invalid_argument when an input
/// does not match its program (see Execute). Results are bit-identical to
/// `count` sequential Execute calls.
void ExecuteBatch(const InferProgram* const* programs, const ExecInputs* in,
                  std::size_t count, float* out, const BatchOptions& opts = {});

/// Process-wide counters: queries ExecuteBatch ran on the calling thread
/// (kSequential) / across a pool (kInterleaved). Surfaced via ServiceStats
/// and the cluster StatsBody.
[[nodiscard]] std::uint64_t BatchedForwards() noexcept;
[[nodiscard]] std::uint64_t InterleavedForwards() noexcept;

}  // namespace predtop::compile
