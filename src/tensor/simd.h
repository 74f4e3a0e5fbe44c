#pragma once
// Explicit SIMD helpers built on GCC/Clang vector extensions. The compiler
// cannot auto-vectorize float reductions (not associative) or the
// bit-twiddling exp approximation, so the two hot spots of predictor
// training — narrow-output GEMMs and attention softmax — use these 8-wide
// kernels directly. Scalar fallbacks keep other compilers working.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

namespace predtop::tensor::simd {

#if defined(__GNUC__) || defined(__clang__)
#define PREDTOP_HAVE_VECTOR_EXT 1
using F8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));

inline F8 Broadcast(float v) noexcept { return F8{v, v, v, v, v, v, v, v}; }

inline float HorizontalSum(F8 v) noexcept {
  return v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7];
}

inline float HorizontalMax(F8 v) noexcept {
  float m = v[0];
  for (int i = 1; i < 8; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

// 16-wide twins, native on AVX-512 and legalized to narrower ops elsewhere;
// elementwise kernels produce the same bits at any width, so these are
// drop-in fast paths, not a numeric fork.
using F16 = float __attribute__((vector_size(64)));
using I16 = std::int32_t __attribute__((vector_size(64)));

inline F16 Broadcast16(float v) noexcept {
  return F16{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v};
}
#endif

/// total + a[i] * b[i] summed in order over [i, n): Dot's scalar tail. The
/// compiler may split this loop into vector products and scalar fused
/// multiply-adds depending on the trip count, so every caller that must
/// reproduce Dot's bits runs this one loop over the same [i, n).
[[nodiscard]] inline float DotTail(float total, const float* __restrict a,
                                   const float* __restrict b, std::int64_t i,
                                   std::int64_t n) noexcept {
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

/// Dot product of two contiguous float spans of length n.
[[nodiscard]] inline float Dot(const float* __restrict a, const float* __restrict b,
                               std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  F8 acc0 = Broadcast(0.0f);
  F8 acc1 = Broadcast(0.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    F8 va0, vb0, va1, vb1;
    std::memcpy(&va0, a + i, sizeof va0);
    std::memcpy(&vb0, b + i, sizeof vb0);
    std::memcpy(&va1, a + i + 8, sizeof va1);
    std::memcpy(&vb1, b + i + 8, sizeof vb1);
    acc0 += va0 * vb0;
    acc1 += va1 * vb1;
  }
  return DotTail(HorizontalSum(acc0 + acc1), a, b, i, n);
#else
  return DotTail(0.0f, a, b, 0, n);
#endif
}

#ifdef PREDTOP_HAVE_VECTOR_EXT
namespace detail {

/// W columns of DotWindowColumns: one 16-lane accumulator per column, lanes
/// 0-7 and 8-15 being Dot's acc0 and acc1, then Dot's own tail loop.
template <int W>
inline void DotWindowColumnGroup(const float* __restrict a, const float* __restrict bt,
                                 std::int64_t ldb, std::int64_t n, std::int64_t lo,
                                 std::int64_t hi, float* __restrict out) noexcept {
  const std::int64_t blocks_end = n / 16 * 16;
  const std::int64_t vec_end = std::min((hi + 15) / 16 * 16, blocks_end);
  F16 acc[W];
  for (int t = 0; t < W; ++t) acc[t] = Broadcast16(0.0f);
  for (std::int64_t i = lo / 16 * 16; i < vec_end; i += 16) {
    F16 va;
    std::memcpy(&va, a + i, sizeof va);
    for (int t = 0; t < W; ++t) {
      F16 vb;
      std::memcpy(&vb, bt + t * ldb + i, sizeof vb);
      acc[t] += va * vb;
    }
  }
  for (int t = 0; t < W; ++t) {
    F8 acc0, acc1;
    std::memcpy(&acc0, &acc[t], sizeof acc0);
    std::memcpy(&acc1, reinterpret_cast<const char*>(&acc[t]) + sizeof acc0, sizeof acc1);
    out[t] = DotTail(HorizontalSum(acc0 + acc1), a, bt + t * ldb, blocks_end, n);
  }
}

}  // namespace detail
#endif

/// out[j] = Dot(a, bt + j * ldb, n) for j in [0, cols), for an `a` that is
/// exactly zero outside [lo, hi): one pass over a's window shared by every
/// column, with Dot's lane split and reduction order per column. It skips
/// the 16-lane blocks outside the window (exact zero products) and runs
/// Dot's tail over the whole of [n rounded down to 16, n), so a must hold
/// real zeros in the blocks the window touches and in that tail. Each out[j]
/// is bit-identical to Dot.
inline void DotWindowColumns(const float* __restrict a, const float* __restrict bt,
                             std::int64_t ldb, std::int64_t cols, std::int64_t n,
                             std::int64_t lo, std::int64_t hi, float* __restrict out) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  hi = std::min(hi, n);
  for (std::int64_t j = 0; j < cols; j += 8) {
    const float* b = bt + j * ldb;
    switch (std::min<std::int64_t>(8, cols - j)) {
      case 8: detail::DotWindowColumnGroup<8>(a, b, ldb, n, lo, hi, out + j); break;
      case 7: detail::DotWindowColumnGroup<7>(a, b, ldb, n, lo, hi, out + j); break;
      case 6: detail::DotWindowColumnGroup<6>(a, b, ldb, n, lo, hi, out + j); break;
      case 5: detail::DotWindowColumnGroup<5>(a, b, ldb, n, lo, hi, out + j); break;
      case 4: detail::DotWindowColumnGroup<4>(a, b, ldb, n, lo, hi, out + j); break;
      case 3: detail::DotWindowColumnGroup<3>(a, b, ldb, n, lo, hi, out + j); break;
      case 2: detail::DotWindowColumnGroup<2>(a, b, ldb, n, lo, hi, out + j); break;
      default: detail::DotWindowColumnGroup<1>(a, b, ldb, n, lo, hi, out + j); break;
    }
  }
#else
  (void)lo;
  (void)hi;
  for (std::int64_t j = 0; j < cols; ++j) out[j] = Dot(a, bt + j * ldb, n);
#endif
}

/// Sum of a contiguous float span.
[[nodiscard]] inline float Sum(const float* __restrict a, std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  F8 acc = Broadcast(0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F8 va;
    std::memcpy(&va, a + i, sizeof va);
    acc += va;
  }
  float total = HorizontalSum(acc);
  for (; i < n; ++i) total += a[i];
  return total;
#else
  float total = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) total += a[i];
  return total;
#endif
}

/// Sum over i of (x[i] - c)^2. Lane-split reduction: the value can differ
/// from a sequential sum in the last bits (callers accept ~1e-7 relative
/// divergence; see infer::LayerNorm).
[[nodiscard]] inline float SumSquaredDiff(const float* __restrict x, float c,
                                          std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  const F8 vc = Broadcast(c);
  F8 acc = Broadcast(0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F8 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    const F8 d = vx - vc;
    acc += d * d;
  }
  float total = HorizontalSum(acc);
  for (; i < n; ++i) {
    const float d = x[i] - c;
    total += d * d;
  }
  return total;
#else
  float total = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = x[i] - c;
    total += d * d;
  }
  return total;
#endif
}

/// Scalar exp approximation for non-positive inputs (range-reduced 2^f
/// polynomial, ~1e-4 relative error on [-87, 0]; underflows to 0 below).
[[nodiscard]] inline float ExpNonPositive(float x) noexcept {
  const float y = x * 1.442695041f;
  const float n = static_cast<float>(static_cast<int>(y - 0.5f));  // floor for y <= 0
  const float f = y - n;                                           // in [0, 1)
  float p = 1.8775767e-3f;
  p = p * f + 8.9893397e-3f;
  p = p * f + 5.5826318e-2f;
  p = p * f + 2.4015361e-1f;
  p = p * f + 6.9315308e-1f;
  p = p * f + 9.9999994e-1f;
  const int ni = static_cast<int>(n) + 127;
  if (ni <= 0) return 0.0f;
  std::uint32_t bits = static_cast<std::uint32_t>(ni) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

#ifdef PREDTOP_HAVE_VECTOR_EXT
/// One 8-wide step of the exp approximation, input pre-clamped per lane to
/// [-100, 0] by the caller (the clamp makes fully-masked -inf entries
/// underflow to exactly 0 via the exponent clamp below).
inline F8 ExpNonPositiveV(F8 vx) noexcept {
  const F8 floor_arg = Broadcast(-100.0f);
  vx = vx < floor_arg ? floor_arg : vx;
  const F8 y = vx * Broadcast(1.442695041f);
  const I8 nint = __builtin_convertvector(y - Broadcast(0.5f), I8);  // floor for y <= 0
  const F8 nf = __builtin_convertvector(nint, F8);
  const F8 f = y - nf;
  F8 p = Broadcast(1.8775767e-3f);
  p = p * f + Broadcast(8.9893397e-3f);
  p = p * f + Broadcast(5.5826318e-2f);
  p = p * f + Broadcast(2.4015361e-1f);
  p = p * f + Broadcast(6.9315308e-1f);
  p = p * f + Broadcast(9.9999994e-1f);
  I8 ni = nint + 127;
  const I8 underflow = ni <= 0;  // lanewise mask (-1 where true)
  ni = (ni & ~underflow) << 23;  // exponent bits become 0 on underflow
  F8 scale;
  std::memcpy(&scale, &ni, sizeof scale);
  return p * scale;  // scale is +0.0 on underflow lanes
}

/// 16-wide twin of ExpNonPositiveV — same polynomial, same rounding, same
/// bits per lane, half the instructions per element on AVX-512 (two 8-wide
/// halves elsewhere).
inline F16 ExpNonPositiveV16(F16 vx) noexcept {
  const F16 floor_arg = Broadcast16(-100.0f);
  vx = vx < floor_arg ? floor_arg : vx;
  const F16 y = vx * Broadcast16(1.442695041f);
  const I16 nint = __builtin_convertvector(y - Broadcast16(0.5f), I16);
  const F16 nf = __builtin_convertvector(nint, F16);
  const F16 f = y - nf;
  F16 p = Broadcast16(1.8775767e-3f);
  p = p * f + Broadcast16(8.9893397e-3f);
  p = p * f + Broadcast16(5.5826318e-2f);
  p = p * f + Broadcast16(2.4015361e-1f);
  p = p * f + Broadcast16(6.9315308e-1f);
  p = p * f + Broadcast16(9.9999994e-1f);
  I16 ni = nint + 127;
  const I16 underflow = ni <= 0;
  ni = (ni & ~underflow) << 23;
  F16 scale;
  std::memcpy(&scale, &ni, sizeof scale);
  return p * scale;
}
#endif

/// out[i] = exp(x[i]) for non-positive x, vectorized. Values below the
/// underflow cutoff produce 0.
inline void ExpNonPositiveN(const float* __restrict x, float* __restrict out,
                            std::int64_t n) noexcept {
#ifdef PREDTOP_HAVE_VECTOR_EXT
  std::int64_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    F16 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    const F16 result = ExpNonPositiveV16(vx);
    std::memcpy(out + i, &result, sizeof result);
  }
#endif
  for (; i + 8 <= n; i += 8) {
    F8 vx;
    std::memcpy(&vx, x + i, sizeof vx);
    const F8 result = ExpNonPositiveV(vx);
    std::memcpy(out + i, &result, sizeof result);
  }
  for (; i < n; ++i) out[i] = x[i] < -100.0f ? 0.0f : ExpNonPositive(x[i]);
#else
  for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] < -100.0f ? 0.0f : ExpNonPositive(x[i]);
#endif
}

}  // namespace predtop::tensor::simd
