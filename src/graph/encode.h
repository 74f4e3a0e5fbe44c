#pragma once
// Turns an OpDag into the numeric inputs consumed by the predictor models:
//  - node feature matrix per paper Tbl. I (op-type one-hot, log-scaled
//    output dims, dtype one-hot, node-kind one-hot),
//  - bit-packed DAGRA reachability mask and DAGPE depths for the DAG
//    Transformer,
//  - symmetrically normalized adjacency (CSR, with transpose) for GCN,
//  - bidirectional edge list with self-loops for GAT.

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/op_dag.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace predtop::graph {

/// Node feature matrix (n, num_op_types + kMaxFeatureDims + num_dtypes +
/// kNumNodeKinds). Tensor dimensions enter as log2(1 + d) (paper §IV-B3:
/// logarithmic scaling keeps large dims from dominating).
[[nodiscard]] tensor::Tensor EncodeNodeFeatures(const OpDag& dag, std::int32_t num_op_types,
                                                std::int32_t num_dtypes);

/// Feature width produced by EncodeNodeFeatures for given vocabularies.
[[nodiscard]] constexpr std::int64_t NodeFeatureWidth(std::int32_t num_op_types,
                                                      std::int32_t num_dtypes) noexcept {
  return static_cast<std::int64_t>(num_op_types) + static_cast<std::int64_t>(kMaxFeatureDims) +
         num_dtypes + kNumNodeKinds;
}

struct EncodedGraph {
  std::int64_t num_nodes = 0;
  tensor::Tensor features;    // (n, F)
  /// DAGRA mask bits: n rows of MaskWords(n) uint64 words, bit v of row u
  /// set iff u may attend to v (graph::BuildDagraBits) — n^2/8 bytes where
  /// the additive float form would take 4n^2. Consumers expand it:
  /// graph::ExpandMask for the tape, one row at a time for the compiled
  /// engine.
  std::vector<std::uint64_t> dagra_mask;
  std::vector<std::int32_t> depths;
  std::shared_ptr<const tensor::Csr> adj_norm;    // Â (GCN)
  std::shared_ptr<const tensor::Csr> adj_norm_t;  // Â^T
  std::vector<std::int32_t> edge_src;  // GAT message edges (bidirectional +
  std::vector<std::int32_t> edge_dst;  // self-loops)
  /// Cached EncodedGraphFingerprint, filled by EncodeGraph; 0 means "not
  /// computed" (callers assembling EncodedGraphs by hand can leave it unset
  /// and the fingerprint is derived on demand).
  std::uint64_t fingerprint = 0;
};

/// Build all model inputs from a (pruned) DAG in one pass.
[[nodiscard]] EncodedGraph EncodeGraph(const OpDag& dag, std::int32_t num_op_types,
                                       std::int32_t num_dtypes);

}  // namespace predtop::graph
