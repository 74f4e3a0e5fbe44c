#pragma once
// DAG reachability-based attention (DAGRA, paper §IV-A): a node attends to
// another iff a directed path connects them (in either direction) or they
// are the same node. The closure is computed with bitset rows in topological
// order, O(V·E/64).

#include <cstdint>
#include <vector>

#include "graph/op_dag.h"
#include "tensor/tensor.h"

namespace predtop::graph {

/// Words per row of an n-node bit matrix (one bit per column).
[[nodiscard]] constexpr std::int64_t MaskWords(std::int64_t n) noexcept { return (n + 63) / 64; }

/// Row-major bitset: bit v of row u set iff u reaches v via >= 0 edges
/// (every node reaches itself).
class ReachabilityClosure {
 public:
  explicit ReachabilityClosure(const OpDag& dag);

  [[nodiscard]] bool Reaches(std::int32_t u, std::int32_t v) const noexcept {
    const std::size_t bit = static_cast<std::size_t>(v);
    return (rows_[static_cast<std::size_t>(u) * words_ + bit / 64] >> (bit % 64)) & 1ULL;
  }
  [[nodiscard]] std::int64_t NumNodes() const noexcept { return n_; }
  /// Row u as MaskWords(n) words (bit v set iff u reaches v).
  [[nodiscard]] const std::uint64_t* Row(std::int32_t u) const noexcept {
    return rows_.data() + static_cast<std::size_t>(u) * words_;
  }

  /// Number of ordered reachable pairs, including self-pairs.
  [[nodiscard]] std::int64_t CountReachablePairs() const noexcept;

 private:
  std::int64_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> rows_;
};

/// DAGRA attention mask (paper Eqn. 1 with the neighborhood range k =
/// infinity), bit-packed: n rows of MaskWords(n) words, bit v of row u set
/// iff u and v are mutually relevant (a path between them in either
/// direction, or u == v). Built as R | R^T from the closure rows, 64x64 bit
/// blocks at a time; padding bits past n are zero.
[[nodiscard]] std::vector<std::uint64_t> BuildDagraBits(const OpDag& dag);

/// One bit-mask row as additive attention floats: out[v] = 0 where bit v is
/// set, -inf elsewhere, for v in [0, n).
void ExpandMaskRow(const std::uint64_t* row, std::int64_t n, float* out) noexcept;

/// A whole n-node bit mask as the additive (n, n) tensor the autograd tape
/// consumes.
[[nodiscard]] tensor::Tensor ExpandMask(const std::vector<std::uint64_t>& bits, std::int64_t n);

/// Ablation helper: an all-zero mask of matching shape (full attention).
[[nodiscard]] tensor::Tensor BuildFullAttentionMask(std::int64_t num_nodes);

}  // namespace predtop::graph
