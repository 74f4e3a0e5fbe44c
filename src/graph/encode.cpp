#include "graph/encode.h"

#include <cmath>
#include <stdexcept>

#include "graph/depth.h"
#include "graph/fingerprint.h"
#include "graph/reachability.h"

namespace predtop::graph {

tensor::Tensor EncodeNodeFeatures(const OpDag& dag, std::int32_t num_op_types,
                                  std::int32_t num_dtypes) {
  const std::int64_t n = dag.NumNodes();
  const std::int64_t width = NodeFeatureWidth(num_op_types, num_dtypes);
  tensor::Tensor features({n, width});
  for (std::int32_t i = 0; i < n; ++i) {
    const DagNode& node = dag.Node(i);
    if (node.op_type < 0 || node.op_type >= num_op_types) {
      throw std::out_of_range("EncodeNodeFeatures: op_type outside vocabulary");
    }
    if (node.dtype < 0 || node.dtype >= num_dtypes) {
      throw std::out_of_range("EncodeNodeFeatures: dtype outside vocabulary");
    }
    std::int64_t col = 0;
    features.at(i, col + node.op_type) = 1.0f;
    col += num_op_types;
    for (std::size_t d = 0; d < kMaxFeatureDims; ++d) {
      features.at(i, col + static_cast<std::int64_t>(d)) =
          std::log2(1.0f + static_cast<float>(node.out_dims[d]));
    }
    col += static_cast<std::int64_t>(kMaxFeatureDims);
    features.at(i, col + node.dtype) = 1.0f;
    col += num_dtypes;
    features.at(i, col + static_cast<std::int32_t>(node.kind)) = 1.0f;
  }
  return features;
}

EncodedGraph EncodeGraph(const OpDag& dag, std::int32_t num_op_types, std::int32_t num_dtypes) {
  EncodedGraph out;
  out.num_nodes = dag.NumNodes();
  out.features = EncodeNodeFeatures(dag, num_op_types, num_dtypes);
  out.dagra_mask = BuildDagraBits(dag);
  out.depths = NodeDepths(dag);

  // GCN: Â = D^{-1/2} (A_undirected + I) D^{-1/2}.
  const auto n = out.num_nodes;
  std::vector<std::int32_t> rows, cols;
  std::vector<float> ones;
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n), 1);  // self-loop
  for (const auto& [u, v] : dag.Edges()) {
    rows.push_back(u);
    cols.push_back(v);
    rows.push_back(v);
    cols.push_back(u);
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  for (std::int32_t i = 0; i < n; ++i) {
    rows.push_back(i);
    cols.push_back(i);
  }
  ones.reserve(rows.size());
  for (std::size_t e = 0; e < rows.size(); ++e) {
    const float du = static_cast<float>(degree[static_cast<std::size_t>(rows[e])]);
    const float dv = static_cast<float>(degree[static_cast<std::size_t>(cols[e])]);
    ones.push_back(1.0f / std::sqrt(du * dv));
  }
  auto adj = std::make_shared<tensor::Csr>(tensor::Csr::FromCoo(n, n, rows, cols, ones));
  // Â is symmetric by construction, but store an explicit transpose so the
  // autograd op never has to assume it.
  auto adj_t = std::make_shared<tensor::Csr>(adj->Transposed());
  out.adj_norm = std::move(adj);
  out.adj_norm_t = std::move(adj_t);

  // GAT: messages along both edge directions plus self-loops.
  out.edge_src.reserve(rows.size());
  out.edge_dst.reserve(rows.size());
  for (const auto& [u, v] : dag.Edges()) {
    out.edge_src.push_back(u);
    out.edge_dst.push_back(v);
    out.edge_src.push_back(v);
    out.edge_dst.push_back(u);
  }
  for (std::int32_t i = 0; i < n; ++i) {
    out.edge_src.push_back(i);
    out.edge_dst.push_back(i);
  }
  out.fingerprint = EncodedGraphFingerprint(out);
  return out;
}

}  // namespace predtop::graph
