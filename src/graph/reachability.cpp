#include "graph/reachability.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace predtop::graph {

ReachabilityClosure::ReachabilityClosure(const OpDag& dag) {
  n_ = dag.NumNodes();
  words_ = static_cast<std::size_t>(MaskWords(n_));
  rows_.assign(static_cast<std::size_t>(n_) * words_, 0ULL);
  const auto order = dag.TopologicalOrder();
  if (!order) throw std::invalid_argument("ReachabilityClosure: graph has a cycle");
  // Reverse topological order: each node's row = self-bit | OR of successors.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const std::int32_t u = *it;
    std::uint64_t* row = rows_.data() + static_cast<std::size_t>(u) * words_;
    row[static_cast<std::size_t>(u) / 64] |= 1ULL << (static_cast<std::size_t>(u) % 64);
    for (const std::int32_t v : dag.Successors(u)) {
      const std::uint64_t* vrow = rows_.data() + static_cast<std::size_t>(v) * words_;
      for (std::size_t w = 0; w < words_; ++w) row[w] |= vrow[w];
    }
  }
}

std::int64_t ReachabilityClosure::CountReachablePairs() const noexcept {
  std::int64_t count = 0;
  for (const std::uint64_t w : rows_) count += std::popcount(w);
  return count;
}

namespace {

/// In-place transpose of a 64x64 bit block (bit c of a[r] is element (r, c)):
/// swap the off-diagonal halves, then recurse into every quadrant at once.
void Transpose64(std::uint64_t* a) noexcept {
  std::uint64_t m = 0x00000000ffffffffULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

std::vector<std::uint64_t> BuildDagraBits(const OpDag& dag) {
  const ReachabilityClosure closure(dag);
  const std::int64_t n = dag.NumNodes();
  const std::int64_t words = MaskWords(n);
  const auto w = static_cast<std::size_t>(words);
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(n) * w);
  // Block (bi, bj) of R | R^T is R's block (bi, bj) OR the transpose of R's
  // block (bj, bi); rows past n are zero, so padding bits stay zero.
  std::uint64_t block[64];
  for (std::int64_t bi = 0; bi < words; ++bi) {
    for (std::int64_t bj = 0; bj < words; ++bj) {
      for (std::int64_t r = 0; r < 64; ++r) {
        const std::int64_t v = bj * 64 + r;
        block[r] = v < n ? closure.Row(static_cast<std::int32_t>(v))[bi] : 0ULL;
      }
      Transpose64(block);
      const std::int64_t rows = std::min<std::int64_t>(64, n - bi * 64);
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t u = bi * 64 + r;
        bits[static_cast<std::size_t>(u) * w + static_cast<std::size_t>(bj)] =
            closure.Row(static_cast<std::int32_t>(u))[bj] | block[r];
      }
    }
  }
  return bits;
}

void ExpandMaskRow(const std::uint64_t* row, std::int64_t n, float* out) noexcept {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (std::int64_t v = 0; v < n; ++v) {
    out[v] = (row[v / 64] >> (v % 64)) & 1ULL ? 0.0f : kNegInf;
  }
}

tensor::Tensor ExpandMask(const std::vector<std::uint64_t>& bits, std::int64_t n) {
  tensor::Tensor mask({n, n});
  const auto w = static_cast<std::size_t>(MaskWords(n));
  float* out = mask.data().data();
  for (std::int64_t u = 0; u < n; ++u) {
    ExpandMaskRow(bits.data() + static_cast<std::size_t>(u) * w, n, out + u * n);
  }
  return mask;
}

tensor::Tensor BuildFullAttentionMask(std::int64_t num_nodes) {
  return tensor::Tensor({num_nodes, num_nodes});
}

}  // namespace predtop::graph
