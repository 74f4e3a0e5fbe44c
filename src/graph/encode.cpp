#include "graph/encode.h"

#include <algorithm>
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

  // GCN: Â = D^{-1/2} (A_undirected + I) D^{-1/2}, built row by row: row i
  // holds i's predecessors, its successors and i itself, sorted. A DAG has
  // no duplicate, antiparallel or self edges, so no two entries of a row
  // share a column.
  const auto n = out.num_nodes;
  auto adj = std::make_shared<tensor::Csr>();
  adj->rows = n;
  adj->cols = n;
  adj->row_ptr.resize(static_cast<std::size_t>(n) + 1);
  adj->row_ptr[0] = 0;
  std::vector<float> degree(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    const std::size_t row = dag.Predecessors(i).size() + dag.Successors(i).size() + 1;
    degree[static_cast<std::size_t>(i)] = static_cast<float>(row);
    adj->row_ptr[static_cast<std::size_t>(i) + 1] =
        adj->row_ptr[static_cast<std::size_t>(i)] + static_cast<std::int64_t>(row);
  }
  const auto nnz = static_cast<std::size_t>(adj->row_ptr.back());
  adj->col_idx.resize(nnz);
  adj->values.resize(nnz);
  for (std::int32_t i = 0; i < n; ++i) {
    const auto begin = adj->col_idx.begin() + adj->row_ptr[static_cast<std::size_t>(i)];
    auto it = std::copy(dag.Predecessors(i).begin(), dag.Predecessors(i).end(), begin);
    it = std::copy(dag.Successors(i).begin(), dag.Successors(i).end(), it);
    *it++ = i;
    std::sort(begin, it);
    const float di = degree[static_cast<std::size_t>(i)];
    for (auto e = begin; e != it; ++e) {
      adj->values[static_cast<std::size_t>(e - adj->col_idx.begin())] =
          1.0f / std::sqrt(di * degree[static_cast<std::size_t>(*e)]);
    }
  }
  // Â is symmetric and float multiplication commutes, so Â^T is Â bit for
  // bit: the transpose shares its storage.
  out.adj_norm = std::move(adj);
  out.adj_norm_t = out.adj_norm;

  // GAT: messages along both edge directions plus self-loops.
  out.edge_src.reserve(nnz);
  out.edge_dst.reserve(nnz);
  for (std::int32_t u = 0; u < n; ++u) {
    for (const std::int32_t v : dag.Successors(u)) {
      out.edge_src.push_back(u);
      out.edge_dst.push_back(v);
      out.edge_src.push_back(v);
      out.edge_dst.push_back(u);
    }
  }
  for (std::int32_t i = 0; i < n; ++i) {
    out.edge_src.push_back(i);
    out.edge_dst.push_back(i);
  }
  out.fingerprint = EncodedGraphFingerprint(out);
  return out;
}

}  // namespace predtop::graph
