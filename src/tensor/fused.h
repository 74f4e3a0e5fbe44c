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
// The masked softmax row reproduces the tape's RowSoftmax bit for bit while
// touching only the lanes a row's mask leaves open.

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

/// One row of the tape's masked attention softmax, in place over the lanes
/// [lo, hi) of a `cols`-lane row of logits: row = softmax(row * scale) over
/// the lanes whose bit is set in `bits` (bit j of word j / 64; null = every
/// lane open), exact 0 on the others. lo must be a multiple of 16, hi either
/// a multiple of 16 or cols, and every open lane must lie in [lo, hi).
/// Bit-identical to tensor::RowSoftmax of the scaled row under the additive
/// 0 / -inf mask: each exp runs on the vector or scalar path the tape's
/// whole-row pass takes for that lane, and the sum adds the lanes in
/// simd::Sum's order. Only open lanes are read for the max, so an
/// overflowed logit under the mask cannot poison the row; a row with no
/// open lane comes out all zeros.
void MaskedSoftmaxRow(float* row, std::int64_t cols, const std::uint64_t* bits, float scale,
                      std::int64_t lo, std::int64_t hi) noexcept;

}  // namespace predtop::tensor::fused
