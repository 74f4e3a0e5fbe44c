#pragma once
// Runtime GEMM/batch autotuner. The compiled executors' crossover knobs
// (packed tile shape, parallel-split threshold, sequential-vs-interleave
// crossover) are machine-dependent; this module resolves them ONCE per
// process into a TuneTable, either from environment overrides, from a
// first-use timing sweep on the actual machine (PREDTOP_AUTOTUNE=1), or
// from the built-in defaults.
//
// Determinism: every candidate the sweep selects between is bit-identical
// to the others (tile shape and threading never change a result bit — each
// output element always accumulates in ascending-k order in its own lane),
// and the table is immutable after first resolution, so prediction results
// never depend on what the autotuner picked or when it ran. Only speed does.

#include <cstdint>

namespace predtop::compile {

/// Machine-resolved execution thresholds, fixed for the process lifetime.
struct TuneTable {
  /// Packed GEMM register tile: 12x16 single-vector (true) vs 6x16
  /// two-vector (false). Mirrors tensor::GemmWideTiles.
  bool wide_tiles = true;
  /// m*k*n at which the packed GEMM fans row panels across the shared pool
  /// (mirrors PREDTOP_GEMM_PAR_MIN_ELEMS).
  std::int64_t par_min_elems = 4l << 20;
  /// Minimum batch size at which ExecuteBatch prefers
  /// interleaving independent forwards over a sequential loop.
  std::int64_t interleave_min_batch = 2;
  /// Minimum mean per-query GEMM FLOPs (linear steps plus attention
  /// products) for interleaving: below this a forward is too small to
  /// amortize one pool task dispatch.
  std::int64_t interleave_min_flops = 1l << 22;
  /// True when the timing sweep ran (vs env/default resolution).
  bool autotuned = false;
};

/// The process-wide table. First call resolves it (timing sweeps only when
/// PREDTOP_AUTOTUNE=1) and applies wide_tiles / par_min_elems to the tensor
/// layer; later calls return the same table. Thread-safe.
[[nodiscard]] const TuneTable& ResolvedTuneTable();

/// Whether first-use timing sweeps are enabled (PREDTOP_AUTOTUNE, default
/// off: unit tests A/B the tile/threshold globals directly and must not have
/// the autotuner stomp them mid-run; benches and the batch CI lane opt in).
[[nodiscard]] bool AutotuneEnabled();

/// Total timed candidate sweeps performed by this process (0 unless
/// autotune ran). Surfaced through ServiceStats / cluster StatsBody.
[[nodiscard]] std::uint64_t AutotuneSweeps() noexcept;

namespace detail {
/// Test hook: drop the resolved table so the next ResolvedTuneTable() call
/// re-resolves (e.g. under a different env). Not for production use.
void ResetTuneTableForTest();
}  // namespace detail

}  // namespace predtop::compile
