#include "compile/tune.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "tensor/ops.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace predtop::compile {

namespace {

struct TuneState {
  std::mutex mu;
  bool resolved = false;
  TuneTable table;
};

TuneState& State() {
  static TuneState s;
  return s;
}

std::atomic<std::uint64_t>& SweepCounter() noexcept {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

/// Best-of-`reps` wall time of `fn` in nanoseconds; one timed candidate.
template <typename Fn>
double SweepNs(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  }
  SweepCounter().fetch_add(1, std::memory_order_relaxed);
  return std::max(best, 1.0);
}

/// Deterministic pseudo-random fill in [-0.5, 0.5) (fixed LCG seed — the
/// sweep's inputs never vary run to run).
void FillDet(std::vector<float>& v, std::uint32_t seed) {
  std::uint32_t s = seed;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>(s >> 8) * (1.0f / 16777216.0f) - 0.5f;
  }
}

/// Time the packed GEMM with both register tiles and derive the machine's
/// single-core MAC throughput; then (on multi-core hosts) time one pool
/// dispatch to place the parallel-split and interleave crossovers. All
/// candidates are bit-identical, so this only ever changes speed.
void Measure(TuneTable& t) {
  constexpr std::int64_t m = 96, k = 128, n = 128;  // ~1.6M MACs, sub-ms
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  FillDet(a, 0x9e3779b9u);
  FillDet(b, 0x85ebca6bu);
  tensor::PackedB pb;
  tensor::PackBInto(b.data(), k, n, pb);
  const auto gemm = [&] { tensor::MatMulPackedInto(a.data(), m, pb, c.data(), false); };

  const bool saved_wide = tensor::GemmWideTiles();
  tensor::SetGemmWideTiles(true);
  gemm();  // warm the pack/page state before timing
  const double wide_ns = SweepNs(3, gemm);
  tensor::SetGemmWideTiles(false);
  const double narrow_ns = SweepNs(3, gemm);
  tensor::SetGemmWideTiles(saved_wide);
  t.wide_tiles = wide_ns <= narrow_ns;
  const double macs_per_ns =
      static_cast<double>(m * k * n) / std::min(wide_ns, narrow_ns);

  const std::size_t threads = tensor::GemmThreads();
  if (threads > 1) {
    // One ParallelFor over the worker count measures the fork/join cost a
    // threaded GEMM (or one interleaved forward) must amortize.
    util::ThreadPool pool(threads);
    const double dispatch_ns =
        SweepNs(3, [&] { pool.ParallelFor(threads * 4, [](std::size_t) {}); });
    // Fan out only when the serial time dwarfs the dispatch: work >= 8x the
    // fork/join cost, i.e. m*k*n >= dispatch_ns * macs/ns * 8.
    t.par_min_elems = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(dispatch_ns * macs_per_ns * 8.0), 1l << 18, 1l << 26);
    // Interleaving pays one task dispatch per query; require the per-query
    // GEMM FLOPs (2 * MACs) to be >= 8x that dispatch.
    t.interleave_min_flops = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(dispatch_ns * macs_per_ns * 2.0 * 8.0), 1l << 18,
        1l << 28);
  }
  t.autotuned = true;
}

/// Env knob as an optional bool ("0"/"false"/"off" = false, else true).
bool EnvOverride(const char* name, bool* out) {
  const auto v = util::EnvString(name);
  if (!v.has_value()) return false;
  *out = !(*v == "0" || *v == "false" || *v == "off");
  return true;
}

void Resolve(TuneTable& t) {
  // Defaults start from the tensor layer's current (env-initialized) state so
  // resolution without autotune never moves a knob a test or user already set.
  t.wide_tiles = tensor::GemmWideTiles();
  t.par_min_elems = tensor::GemmParMinElems();
  t.interleave_min_batch = 2;
  t.interleave_min_flops = 1l << 22;
  t.autotuned = false;

  if (AutotuneEnabled()) Measure(t);

  // Explicit PREDTOP_TUNE_* overrides win over both defaults and measurement.
  bool wide = t.wide_tiles;
  const bool wide_set = EnvOverride("PREDTOP_TUNE_WIDE_TILES", &wide);
  if (wide_set) t.wide_tiles = wide;
  const long pme = util::EnvInt("PREDTOP_TUNE_PAR_MIN_ELEMS", 0);
  if (pme > 0) t.par_min_elems = pme;
  const long imb = util::EnvInt("PREDTOP_TUNE_INTERLEAVE_MIN_BATCH", 0);
  if (imb > 0) t.interleave_min_batch = imb;
  const long imf = util::EnvInt("PREDTOP_TUNE_INTERLEAVE_MIN_FLOPS", 0);
  if (imf > 0) t.interleave_min_flops = imf;

  // Apply to the tensor layer only when something actively chose a value
  // (measurement or override) — a default resolution must not stomp globals
  // tests or callers manage directly via the Set* API.
  if (t.autotuned || wide_set) tensor::SetGemmWideTiles(t.wide_tiles);
  if (t.autotuned || pme > 0) tensor::SetGemmParMinElems(t.par_min_elems);
}

}  // namespace

const TuneTable& ResolvedTuneTable() {
  TuneState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.resolved) {
    Resolve(s.table);
    s.resolved = true;
  }
  return s.table;
}

bool AutotuneEnabled() {
  return util::EnvInt("PREDTOP_AUTOTUNE", 0) != 0;
}

std::uint64_t AutotuneSweeps() noexcept {
  return SweepCounter().load(std::memory_order_relaxed);
}

namespace detail {
void ResetTuneTableForTest() {
  TuneState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.resolved = false;
  s.table = TuneTable{};
}
}  // namespace detail

}  // namespace predtop::compile
