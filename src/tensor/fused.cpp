#include "tensor/fused.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/simd.h"

namespace predtop::tensor::fused {

void BiasActRows(float* c, std::int64_t rows, std::int64_t cols, std::int64_t ldc,
                 const float* bias, Act act) noexcept {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = c + i * ldc;
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < cols; ++j) row[j] += bias[j];
    }
    switch (act) {
      case Act::kRelu:
        for (std::int64_t j = 0; j < cols; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
        break;
      case Act::kGelu: {
        constexpr float kC = 0.7978845608f;  // sqrt(2/pi), as tensor::Gelu
        for (std::int64_t j = 0; j < cols; ++j) {
          const float x = row[j];
          const float inner = kC * (x + 0.044715f * x * x * x);
          row[j] = 0.5f * x * (1.0f + std::tanh(inner));
        }
        break;
      }
      case Act::kNone: break;
    }
  }
}

void LayerNormRow(const float* xrow, const float* gain, const float* bias, float* orow,
                  std::int64_t cols, float eps) noexcept {
  const float mean = simd::Sum(xrow, cols) / static_cast<float>(cols);
  const float var = simd::SumSquaredDiff(xrow, mean, cols) / static_cast<float>(cols);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::int64_t j = 0; j < cols; ++j) {
    const float xh = (xrow[j] - mean) * inv;
    orow[j] = xh * gain[j] + bias[j];
  }
}

namespace {

/// True when lane j is open: its mask bit is set, or there is no mask.
bool Open(const std::uint64_t* bits, std::int64_t j) noexcept {
  return bits == nullptr || ((bits[j >> 6] >> (j & 63)) & 1ULL) != 0;
}

#ifdef PREDTOP_HAVE_VECTOR_EXT
/// Mask bits of the `width`-lane group starting at g (g a multiple of width,
/// so the group never straddles a mask word).
std::int32_t GroupBits(const std::uint64_t* bits, std::int64_t g, int width) noexcept {
  const std::uint64_t all = (1ULL << width) - 1;
  return static_cast<std::int32_t>(bits == nullptr ? all : (bits[g >> 6] >> (g & 63)) & all);
}

/// -1 on the lanes whose bit is set in `group_bits`, 0 elsewhere.
simd::I16 LaneMask16(std::int32_t group_bits) noexcept {
  const simd::I16 lane_bit = {1,   2,   4,    8,    16,   32,   64,    128,
                              256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
  return (lane_bit & group_bits) != 0;
}

simd::I8 LaneMask8(std::int32_t group_bits) noexcept {
  const simd::I8 lane_bit = {1, 2, 4, 8, 16, 32, 64, 128};
  return (lane_bit & group_bits) != 0;
}
#endif

}  // namespace

void MaskedSoftmaxRow(float* row, std::int64_t cols, const std::uint64_t* bits, float scale,
                      std::int64_t lo, std::int64_t hi) noexcept {
  // The tape's lane paths: 16-lane vectors below cols16, one 8-lane vector
  // in [cols16, cols8) and scalars from cols8 on (hi is either <= cols16 or
  // cols itself).
  const std::int64_t cols16 = cols / 16 * 16;
  const std::int64_t cols8 = cols / 8 * 8;
  const std::int64_t end16 = std::min(hi, cols16);
  const bool has8 = hi > cols16 && cols8 > cols16;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  const std::int64_t tail = std::max(lo, cols8);
#else
  const std::int64_t tail = lo;  // the tape runs every lane scalar
#endif
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();

  // Pass 1: scale every lane, max over the open ones (max is exact in any
  // order, so the vector lanes may split it freely).
  float maxv = kNegInf;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  {
    simd::F16 vmax = simd::Broadcast16(kNegInf);
    for (std::int64_t g = lo; g < end16; g += 16) {
      simd::F16 x;
      std::memcpy(&x, row + g, sizeof x);
      x *= scale;
      std::memcpy(row + g, &x, sizeof x);
      const simd::F16 v = LaneMask16(GroupBits(bits, g, 16)) ? x : simd::Broadcast16(kNegInf);
      vmax = v > vmax ? v : vmax;
    }
    for (int l = 0; l < 16; ++l) maxv = vmax[l] > maxv ? vmax[l] : maxv;
    if (has8) {
      simd::F8 x;
      std::memcpy(&x, row + cols16, sizeof x);
      x *= scale;
      std::memcpy(row + cols16, &x, sizeof x);
      const simd::F8 v = LaneMask8(GroupBits(bits, cols16, 8)) ? x : simd::Broadcast(kNegInf);
      maxv = std::max(maxv, simd::HorizontalMax(v));
    }
  }
#endif
  for (std::int64_t j = tail; j < hi; ++j) {
    row[j] *= scale;
    if (Open(bits, j)) maxv = std::max(maxv, row[j]);
  }
  if (maxv < -1e30f) {  // fully masked row, as the tape's RowSoftmax
    std::fill(row + lo, row + hi, 0.0f);
    return;
  }

  // Pass 2: exp of the open lanes (0 elsewhere), summed in the lane order of
  // simd::Sum over the whole row — groups with no open lane add exact zeros,
  // so skipping them keeps the bits.
  float total = 0.0f;
#ifdef PREDTOP_HAVE_VECTOR_EXT
  {
    simd::F8 acc = simd::Broadcast(0.0f);
    const simd::F16 wshift = simd::Broadcast16(maxv);
    for (std::int64_t g = lo; g < end16; g += 16) {
      const std::int32_t group = GroupBits(bits, g, 16);
      if (group == 0) {
        std::fill(row + g, row + g + 16, 0.0f);
        continue;
      }
      simd::F16 x;
      std::memcpy(&x, row + g, sizeof x);
      const simd::F16 e = LaneMask16(group) ? simd::ExpNonPositiveV16(x - wshift)
                                                  : simd::Broadcast16(0.0f);
      std::memcpy(row + g, &e, sizeof e);
      simd::F8 half;
      std::memcpy(&half, &e, sizeof half);
      acc += half;
      std::memcpy(&half, reinterpret_cast<const char*>(&e) + sizeof half, sizeof half);
      acc += half;
    }
    if (has8) {
      simd::F8 x;
      std::memcpy(&x, row + cols16, sizeof x);
      const simd::F8 e = LaneMask8(GroupBits(bits, cols16, 8))
                             ? simd::ExpNonPositiveV(x - simd::Broadcast(maxv))
                             : simd::Broadcast(0.0f);
      std::memcpy(row + cols16, &e, sizeof e);
      acc += e;
    }
    total = simd::HorizontalSum(acc);
  }
#endif
  for (std::int64_t j = tail; j < hi; ++j) {
    const float v = row[j] - maxv;
    const float e = Open(bits, j) ? (v < -100.0f ? 0.0f : simd::ExpNonPositive(v)) : 0.0f;
    row[j] = e;
    total += e;
  }

  // Pass 3: normalize, as the tape does before the weights * V product.
  const float inv = 1.0f / total;
  for (std::int64_t j = lo; j < hi; ++j) row[j] *= inv;
}

}  // namespace predtop::tensor::fused
