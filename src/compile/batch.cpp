#include "compile/batch.h"

#include <atomic>

#include "compile/tune.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace predtop::compile {

namespace {

std::atomic<std::uint64_t>& SequentialCounter() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

std::atomic<std::uint64_t>& InterleavedCounter() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

/// Interleave pool of last resort (immortal: workers may outlive static
/// destruction order, matching the shared GEMM pool's lifetime posture).
util::ThreadPool& SharedBatchPool() {
  static util::ThreadPool* pool = new util::ThreadPool(tensor::GemmThreads());
  return *pool;
}

/// Per-query GEMM FLOPs of the program (2*m*k*n each) — the dominant cost,
/// used by the kAuto crossover against the TuneTable: the linear steps, plus
/// each attention step's q|k|v projection and its q k^T and weights * v
/// products (2 * 2*n*n*dim over its heads).
std::int64_t GemmFlops(const InferProgram& p) {
  std::int64_t flops = 0;
  const std::int64_t n = p.num_nodes;
  for (const Step& s : p.steps) {
    switch (s.kind) {
      case OpKind::kLinear:
      case OpKind::kLinearAct:
      case OpKind::kLinearResidualNorm:
        flops += 2 * p.values[static_cast<std::size_t>(s.out)].rows *
                 s.linear->InFeatures() * s.linear->OutFeatures();
        break;
      case OpKind::kFusedAttention:
        flops += 2 * n * s.attn->Dim() * 3 * s.attn->Dim() + 4 * n * n * s.attn->Dim();
        break;
      default:
        break;
    }
  }
  return flops;
}

}  // namespace

std::uint64_t BatchedForwards() noexcept {
  return SequentialCounter().load(std::memory_order_relaxed);
}

std::uint64_t InterleavedForwards() noexcept {
  return InterleavedCounter().load(std::memory_order_relaxed);
}

void ExecuteBatch(const InferProgram* const* programs, const ExecInputs* in,
                  std::size_t count, float* out, const BatchOptions& opts) {
  if (count == 0) return;
  BatchMode mode = opts.mode;
  util::ThreadPool* pool = opts.pool;
  if (mode == BatchMode::kAuto) {
    const TuneTable& tune = ResolvedTuneTable();
    const std::size_t threads =
        pool != nullptr ? pool->ThreadCount() + 1 : tensor::GemmThreads();
    // Interleave only when there are cores to spread across AND the average
    // forward is heavy enough to amortize its task dispatch.
    std::int64_t flops = 0;
    for (std::size_t q = 0; q < count; ++q) flops += GemmFlops(*programs[q]);
    mode = (threads > 1 && static_cast<std::int64_t>(count) >= tune.interleave_min_batch &&
            flops / static_cast<std::int64_t>(count) >= tune.interleave_min_flops)
               ? BatchMode::kInterleaved
               : BatchMode::kSequential;
  }

  if (mode == BatchMode::kInterleaved) {
    (pool != nullptr ? *pool : SharedBatchPool()).ParallelFor(count, [&](std::size_t q) {
      Execute(*programs[q], in[q], &out[q]);
    });
    InterleavedCounter().fetch_add(count, std::memory_order_relaxed);
    return;
  }
  for (std::size_t q = 0; q < count; ++q) Execute(*programs[q], in[q], &out[q]);
  SequentialCounter().fetch_add(count, std::memory_order_relaxed);
}

}  // namespace predtop::compile
