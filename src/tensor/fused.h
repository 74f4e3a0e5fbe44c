#pragma once
// Fused epilogue kernels for the compiled inference programs (predtop::compile).
//
// Each kernel applies exactly the per-element float sequence of the unfused
// op chain it replaces — GEMM accumulate, then +bias, then activation /
// +residual, then LayerNorm with lane-split simd reductions — so a fused
// step is bit-identical to the unfused steps it replaces and stays inside the
// documented 1e-6 parity contract against the autograd tape. Fusion buys the
// memory passes, not a different formula.
//
// The deferred softmax leaves normalization to the caller (one scale of the
// (n, head_dim) output instead of the (n, n) weights).

#include <cstdint>

namespace predtop::tensor::fused {

enum class Act : std::uint8_t { kNone = 0, kRelu = 1, kGelu = 2 };

/// In-place epilogue over `rows` rows of stride `ldc`: row[j] += bias[j]
/// (skipped when bias is null), then the activation. Same op order as
/// AddRowVectorInPlace followed by Relu/Gelu in place.
void BiasActRows(float* c, std::int64_t rows, std::int64_t cols, std::int64_t ldc,
                 const float* bias, Act act) noexcept;

/// One LayerNorm row: orow = gain * (xrow - mean) / sqrt(var + eps) + bias,
/// with lane-split simd::Sum / simd::SumSquaredDiff reductions (~1e-7 of the
/// sequential training path).
void LayerNormRow(const float* xrow, const float* gain, const float* bias, float* orow,
                  std::int64_t cols, float eps = 1e-5f) noexcept;

/// One row of the deferred-normalization masked softmax, for callers that
/// know the row's exact open-lane runs (the compiled executor precomputes
/// them once per graph — the reachability mask is a shape invariant).
/// `chunks` holds `num_chunks` [lo, hi) pairs in ascending order; every lane
/// outside the runs is -inf masked and written as exact 0, and lanes inside
/// need no mask check at all. orow holds the unnormalized exp weights and
/// *inv the 1/sum factor (0 for a row with no open lane). The exp shift is
/// the max over the open lanes — the shift the tape's RowSoftmax sees after
/// adding the mask — and a masked lane is never read, so an overflowed
/// logit under the mask cannot poison the row.
void DeferredSoftmaxRowChunks(const float* lrow, float* orow, std::int64_t cols,
                              const std::int32_t* chunks, std::int64_t num_chunks,
                              float* inv) noexcept;

}  // namespace predtop::tensor::fused
