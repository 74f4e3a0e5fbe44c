// Tests for the explicit-SIMD helpers against scalar references: these
// kernels sit under every hot path of predictor training, so they get their
// own exhaustive sweeps (lengths crossing vector-width boundaries, subnormal
// and -inf inputs for the exp approximation). The compiled attention's
// windowed kernels are checked bit for bit against the whole-row kernels
// the autograd tape runs (simd::Dot, tensor::RowSoftmax).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/fused.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace predtop::tensor::simd {
namespace {

class SimdLengths : public ::testing::TestWithParam<int> {};

TEST_P(SimdLengths, DotMatchesScalar) {
  const int n = GetParam();
  util::Rng rng(n + 1);
  std::vector<float> a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  double expected = 0.0;
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(rng.Normal());
    b[static_cast<std::size_t>(i)] = static_cast<float>(rng.Normal());
    expected += static_cast<double>(a[static_cast<std::size_t>(i)]) *
                b[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(Dot(a.data(), b.data(), n), expected, 1e-4 * std::max(1.0, std::fabs(expected)));
}

TEST_P(SimdLengths, SumMatchesScalar) {
  const int n = GetParam();
  util::Rng rng(n + 2);
  std::vector<float> a(static_cast<std::size_t>(n));
  double expected = 0.0;
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(rng.Normal());
    expected += a[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(Sum(a.data(), n), expected, 1e-4 * std::max(1.0, std::fabs(expected)));
}

TEST_P(SimdLengths, ExpMatchesStdExp) {
  const int n = GetParam();
  util::Rng rng(n + 3);
  std::vector<float> x(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<float>(-rng.Uniform(0.0, 40.0));
  }
  ExpNonPositiveN(x.data(), out.data(), n);
  for (int i = 0; i < n; ++i) {
    const double reference = std::exp(static_cast<double>(x[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(out[static_cast<std::size_t>(i)], reference, 5e-4 * reference + 1e-30)
        << "x=" << x[static_cast<std::size_t>(i)];
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, SimdLengths,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257));

TEST(SimdExp, HandlesBoundaryInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> x{0.0f, -1e-8f, -87.0f, -100.0f, -1000.0f, -inf, -0.5f, -20.0f};
  std::vector<float> out(x.size());
  ExpNonPositiveN(x.data(), out.data(), static_cast<std::int64_t>(x.size()));
  EXPECT_NEAR(out[0], 1.0f, 2e-6f);
  EXPECT_NEAR(out[1], 1.0f, 2e-6f);
  EXPECT_EQ(out[4], 0.0f);  // deep underflow clamps to zero
  EXPECT_EQ(out[5], 0.0f);  // -inf (masked attention) is exactly zero
  for (const float v : out) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST(SimdExp, ScalarVariantAgreesWithVector) {
  std::vector<float> x, vec_out;
  for (float v = -50.0f; v <= 0.0f; v += 0.37f) x.push_back(v);
  vec_out.resize(x.size());
  ExpNonPositiveN(x.data(), vec_out.data(), static_cast<std::int64_t>(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(ExpNonPositive(x[i]), vec_out[i], 1e-5f * std::max(1e-20f, vec_out[i]));
  }
}

TEST(SimdDot, ZeroLengthIsZero) {
  EXPECT_EQ(Dot(nullptr, nullptr, 0), 0.0f);
  EXPECT_EQ(Sum(nullptr, 0), 0.0f);
}

constexpr int kRowLengths[] = {1, 5, 8, 13, 16, 17, 24, 31, 32, 40, 100, 230, 846};

TEST(SimdDot, WindowColumnsMatchDotBitForBit) {
  // a is zero outside [lo, hi); every column must equal a whole-span Dot.
  util::Rng rng(0xd07);
  for (const int n : kRowLengths) {
    for (const int cols : {1, 3, 8, 11}) {
      for (int trial = 0; trial < 6; ++trial) {
        const auto lo = static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(n) + 1));
        const auto hi =
            lo + static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(n - lo) + 1));
        std::vector<float> a(static_cast<std::size_t>(n), 0.0f);
        for (std::int64_t i = lo; i < hi; ++i) {
          a[static_cast<std::size_t>(i)] = static_cast<float>(rng.Normal());
        }
        std::vector<float> bt(static_cast<std::size_t>(cols * n));
        for (float& v : bt) v = static_cast<float>(rng.Normal());
        std::vector<float> out(static_cast<std::size_t>(cols), -1.0f);
        DotWindowColumns(a.data(), bt.data(), n, cols, n, lo, hi, out.data());
        for (int j = 0; j < cols; ++j) {
          const float want = Dot(a.data(), bt.data() + j * n, n);
          EXPECT_EQ(std::memcmp(&out[static_cast<std::size_t>(j)], &want, sizeof want), 0)
              << "n=" << n << " cols=" << cols << " window=[" << lo << "," << hi << ") j=" << j
              << ": " << out[static_cast<std::size_t>(j)] << " vs " << want;
        }
      }
    }
  }
}

TEST(MaskedSoftmaxRow, MatchesTapeRowSoftmaxBitForBit) {
  // The tape's attention softmax: RowSoftmax of the scaled logits under the
  // additive 0 / -inf mask, over the whole row.
  util::Rng rng(0x50f7);
  const float inf = std::numeric_limits<float>::infinity();
  const float scale = 1.0f / std::sqrt(8.0f);
  for (const int n : kRowLengths) {
    for (const double density : {0.0, 0.05, 0.3, 0.9, 1.0}) {
      const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
      std::vector<std::uint64_t> bits(words, 0);
      for (int j = 0; j < n; ++j) {
        if (rng.NextDouble() < density) bits[static_cast<std::size_t>(j) / 64] |= 1ULL << (j % 64);
      }
      std::vector<float> logits(static_cast<std::size_t>(n));
      for (float& v : logits) v = static_cast<float>(3.0 * rng.Normal());
      Tensor scaled({1, n});
      Tensor mask({1, n});
      std::int64_t first = n, last = -1;
      for (int j = 0; j < n; ++j) {
        const bool open = density == 1.0 || ((bits[static_cast<std::size_t>(j) / 64] >> (j % 64)) & 1);
        scaled.at(0, j) = logits[static_cast<std::size_t>(j)] * scale;
        mask.at(0, j) = open ? 0.0f : -inf;
        if (open) {
          first = std::min<std::int64_t>(first, j);
          last = j;
        }
      }
      const Tensor want = RowSoftmax(scaled, &mask);
      // The compiled executor's span: the open lanes' hull widened to whole
      // 16-lane groups.
      const std::int64_t lo = first / 16 * 16;
      const std::int64_t hi = std::min<std::int64_t>(n, (last + 1 + 15) / 16 * 16);
      std::vector<float> got = logits;
      fused::MaskedSoftmaxRow(got.data(), n, density == 1.0 ? nullptr : bits.data(), scale,
                              std::min(lo, hi), hi);
      const std::string what = "n=" + std::to_string(n) + " density=" + std::to_string(density);
      for (std::int64_t j = std::min(lo, hi); j < hi; ++j) {
        const float w = want.at(0, j);
        EXPECT_EQ(std::memcmp(&got[static_cast<std::size_t>(j)], &w, sizeof w), 0)
            << what << " lane " << j << ": " << got[static_cast<std::size_t>(j)] << " vs " << w;
      }
    }
  }
}

}  // namespace
}  // namespace predtop::tensor::simd
