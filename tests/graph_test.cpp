// Tests for the operator-DAG representation and its predictor-facing
// encodings: reachability (DAGRA), depth (DAGPE), pruning, features, the
// GCN adjacency against a COO reference, and pinned fingerprint values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/depth.h"
#include "graph/encode.h"
#include "graph/fingerprint.h"
#include "graph/op_dag.h"
#include "graph/prune.h"
#include "graph/reachability.h"
#include "ir/models.h"
#include "ir/to_dag.h"
#include "ir/types.h"
#include "tensor/sparse.h"
#include "util/rng.h"

namespace predtop::graph {
namespace {

using util::Rng;

OpDag ChainDag(std::int32_t n) {
  OpDag dag;
  for (std::int32_t i = 0; i < n; ++i) dag.AddNode({});
  for (std::int32_t i = 0; i + 1 < n; ++i) dag.AddEdge(i, i + 1);
  return dag;
}

/// Random DAG: edges only from lower to higher indices (guaranteed acyclic).
OpDag RandomDag(std::int32_t n, double edge_prob, Rng& rng) {
  OpDag dag;
  for (std::int32_t i = 0; i < n; ++i) dag.AddNode({});
  for (std::int32_t u = 0; u < n; ++u) {
    for (std::int32_t v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < edge_prob) dag.AddEdge(u, v);
    }
  }
  return dag;
}

TEST(OpDag, AddNodesAndEdges) {
  OpDag dag;
  const auto a = dag.AddNode({});
  const auto b = dag.AddNode({});
  dag.AddEdge(a, b);
  dag.AddEdge(a, b);  // duplicate ignored
  EXPECT_EQ(dag.NumNodes(), 2);
  EXPECT_EQ(dag.NumEdges(), 1);
  EXPECT_EQ(dag.Successors(a).size(), 1u);
  EXPECT_EQ(dag.Predecessors(b).size(), 1u);
}

TEST(OpDag, RejectsSelfLoopsAndBadIndices) {
  OpDag dag;
  const auto a = dag.AddNode({});
  EXPECT_THROW(dag.AddEdge(a, a), std::invalid_argument);
  EXPECT_THROW(dag.AddEdge(a, 5), std::out_of_range);
}

TEST(OpDag, TopologicalOrderRespectsEdges) {
  Rng rng(1);
  const OpDag dag = RandomDag(30, 0.15, rng);
  const auto order = dag.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  std::vector<std::int32_t> position(30);
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = static_cast<std::int32_t>(i);
  for (const auto& [u, v] : dag.Edges()) EXPECT_LT(position[u], position[v]);
}

TEST(ReachabilityClosure, SelfAndDirectEdges) {
  const OpDag dag = ChainDag(4);
  const ReachabilityClosure closure(dag);
  for (std::int32_t i = 0; i < 4; ++i) EXPECT_TRUE(closure.Reaches(i, i));
  EXPECT_TRUE(closure.Reaches(0, 3));   // transitive
  EXPECT_FALSE(closure.Reaches(3, 0));  // directed
}

TEST(ReachabilityClosure, MatchesDfsOnRandomDags) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const OpDag dag = RandomDag(24, 0.12, rng);
    const ReachabilityClosure closure(dag);
    // Reference: DFS from each node.
    for (std::int32_t s = 0; s < 24; ++s) {
      std::set<std::int32_t> visited{s};
      std::vector<std::int32_t> stack{s};
      while (!stack.empty()) {
        const std::int32_t u = stack.back();
        stack.pop_back();
        for (const std::int32_t v : dag.Successors(u)) {
          if (visited.insert(v).second) stack.push_back(v);
        }
      }
      for (std::int32_t t = 0; t < 24; ++t) {
        EXPECT_EQ(closure.Reaches(s, t), visited.count(t) > 0) << s << "->" << t;
      }
    }
  }
}

TEST(ReachabilityClosure, TransitivityProperty) {
  Rng rng(3);
  const OpDag dag = RandomDag(20, 0.2, rng);
  const ReachabilityClosure closure(dag);
  for (std::int32_t a = 0; a < 20; ++a) {
    for (std::int32_t b = 0; b < 20; ++b) {
      if (!closure.Reaches(a, b)) continue;
      for (std::int32_t c = 0; c < 20; ++c) {
        if (closure.Reaches(b, c)) {
          EXPECT_TRUE(closure.Reaches(a, c));
        }
      }
    }
  }
}

/// Bit (u, v) of an n-node bit mask.
bool MaskBit(const std::vector<std::uint64_t>& bits, std::int64_t n, std::int64_t u,
             std::int64_t v) {
  return (bits[static_cast<std::size_t>(u * MaskWords(n) + v / 64)] >> (v % 64)) & 1ULL;
}

/// Independent oracle: reach[u][v] iff an iterative DFS from u along
/// successor edges visits v (every node visits itself).
std::vector<std::vector<bool>> DfsReach(const OpDag& dag) {
  const auto n = static_cast<std::size_t>(dag.NumNodes());
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::int32_t> stack{static_cast<std::int32_t>(s)};
    while (!stack.empty()) {
      const std::int32_t u = stack.back();
      stack.pop_back();
      if (reach[s][static_cast<std::size_t>(u)]) continue;
      reach[s][static_cast<std::size_t>(u)] = true;
      for (const std::int32_t v : dag.Successors(u)) stack.push_back(v);
    }
  }
  return reach;
}

TEST(DagraMask, SymmetricAndCoversEdges) {
  Rng rng(4);
  const OpDag dag = RandomDag(16, 0.2, rng);
  const std::vector<std::uint64_t> bits = BuildDagraBits(dag);
  ASSERT_EQ(bits.size(), 16u * MaskWords(16));
  for (std::int32_t u = 0; u < 16; ++u) {
    EXPECT_TRUE(MaskBit(bits, 16, u, u));  // self-attention always allowed
    for (std::int32_t v = 0; v < 16; ++v) {
      EXPECT_EQ(MaskBit(bits, 16, u, v), MaskBit(bits, 16, v, u));  // mutual relevance
    }
  }
  for (const auto& [u, v] : dag.Edges()) EXPECT_TRUE(MaskBit(bits, 16, u, v));
}

TEST(DagraMask, BlocksParallelBranches) {
  // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Nodes 1 and 2 are not on a
  // common path, so they must not attend to each other.
  OpDag dag;
  for (int i = 0; i < 4; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 3);
  dag.AddEdge(2, 3);
  const std::vector<std::uint64_t> bits = BuildDagraBits(dag);
  EXPECT_FALSE(MaskBit(bits, 4, 1, 2));
  EXPECT_FALSE(MaskBit(bits, 4, 2, 1));
  EXPECT_TRUE(MaskBit(bits, 4, 0, 3));
  EXPECT_TRUE(MaskBit(bits, 4, 3, 0));
}

TEST(DagraMask, MatchesDfsReachabilityOnRandomDags) {
  // Sizes straddle the 64-bit word boundary; densities run from nearly
  // disconnected to nearly total, so both set and clear bits are exercised
  // in every word.
  for (const std::int32_t n : {1, 63, 64, 65, 200}) {
    for (const double degree : {0.5, 1.5, 4.0}) {
      Rng rng(1000 + static_cast<std::uint64_t>(n) * 7 + static_cast<std::uint64_t>(degree * 2));
      const OpDag dag = RandomDag(n, std::min(1.0, degree / n), rng);
      const std::vector<std::uint64_t> bits = BuildDagraBits(dag);
      const std::int64_t words = MaskWords(n);
      ASSERT_EQ(bits.size(), static_cast<std::size_t>(n * words));
      const auto reach = DfsReach(dag);
      for (std::int32_t u = 0; u < n; ++u) {
        for (std::int32_t v = 0; v < n; ++v) {
          const bool expected = reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] ||
                                reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)];
          ASSERT_EQ(MaskBit(bits, n, u, v), expected)
              << "n=" << n << " degree=" << degree << " u=" << u << " v=" << v;
        }
        // Padding bits past n in the row's last word are zero.
        for (std::int64_t v = n; v < words * 64; ++v) {
          ASSERT_FALSE(MaskBit(bits, n, u, v)) << "n=" << n << " padding bit " << v;
        }
      }
    }
  }
}

TEST(DagraMask, ExpansionIsExactlyZeroOrNegativeInfinity) {
  Rng rng(21);
  const std::int32_t n = 70;
  const OpDag dag = RandomDag(n, 2.0 / n, rng);
  const std::vector<std::uint64_t> bits = BuildDagraBits(dag);
  const tensor::Tensor mask = ExpandMask(bits, n);
  ASSERT_EQ(mask.dim(0), n);
  ASSERT_EQ(mask.dim(1), n);
  std::vector<float> row(static_cast<std::size_t>(n));
  for (std::int32_t u = 0; u < n; ++u) {
    ExpandMaskRow(bits.data() + u * MaskWords(n), n, row.data());
    for (std::int32_t v = 0; v < n; ++v) {
      const float x = mask.at(u, v);
      if (MaskBit(bits, n, u, v)) {
        EXPECT_EQ(x, 0.0f);
        EXPECT_FALSE(std::signbit(x));
      } else {
        EXPECT_TRUE(std::isinf(x) && x < 0.0f) << u << "," << v;
      }
      EXPECT_EQ(std::memcmp(&row[static_cast<std::size_t>(v)], &x, sizeof x), 0);
    }
  }
}

TEST(FullAttentionMask, IsAllZero) {
  const tensor::Tensor mask = BuildFullAttentionMask(5);
  for (const float v : mask.data()) EXPECT_EQ(v, 0.0f);
}

TEST(NodeDepths, LongestPathSemantics) {
  // 0 -> 1 -> 3 and 0 -> 3: depth(3) must be 2 (longest path).
  OpDag dag;
  for (int i = 0; i < 4; ++i) dag.AddNode({});
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 3);
  dag.AddEdge(0, 3);
  dag.AddEdge(0, 2);
  const auto depths = NodeDepths(dag);
  EXPECT_EQ(depths[0], 0);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[2], 1);
  EXPECT_EQ(depths[3], 2);
}

TEST(NodeDepths, MonotoneAlongEdges) {
  Rng rng(5);
  const OpDag dag = RandomDag(25, 0.15, rng);
  const auto depths = NodeDepths(dag);
  for (const auto& [u, v] : dag.Edges()) {
    EXPECT_LT(depths[u], depths[v]);
  }
}

TEST(SinusoidalEncoding, ShapeAndRange) {
  const tensor::Tensor pe = SinusoidalEncoding({0, 1, 5, 100}, 16);
  EXPECT_EQ(pe.dim(0), 4);
  EXPECT_EQ(pe.dim(1), 16);
  for (const float v : pe.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
  // Position 0: sin terms are 0, cos terms are 1.
  EXPECT_FLOAT_EQ(pe.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(pe.at(0, 1), 1.0f);
}

TEST(SinusoidalEncoding, RequiresEvenDim) {
  EXPECT_THROW(SinusoidalEncoding({0}, 7), std::invalid_argument);
}

// ---- pruning ----

DagNode OpNode(std::int32_t op_type) {
  DagNode node;
  node.kind = NodeKind::kOperator;
  node.op_type = op_type;
  return node;
}

TEST(Prune, CollapsesChainsOfRemovableNodes) {
  // in -> A -> r1 -> r2 -> B -> out, where r1/r2 are prunable: expect
  // A -> B directly in the result.
  OpDag dag;
  const auto in = dag.AddNode({NodeKind::kInput, 0, 0, {1, 1, 1, 1}});
  const auto a = dag.AddNode(OpNode(1));
  const auto r1 = dag.AddNode(OpNode(99));
  const auto r2 = dag.AddNode(OpNode(99));
  const auto b = dag.AddNode(OpNode(2));
  const auto out = dag.AddNode({NodeKind::kOutput, 0, 0, {1, 1, 1, 1}});
  dag.AddEdge(in, a);
  dag.AddEdge(a, r1);
  dag.AddEdge(r1, r2);
  dag.AddEdge(r2, b);
  dag.AddEdge(b, out);
  const PruneResult result =
      PruneDag(dag, [](const DagNode& n) { return n.op_type == 99; });
  EXPECT_EQ(result.removed, 2);
  EXPECT_EQ(result.dag.NumNodes(), 4);
  EXPECT_TRUE(result.dag.IsAcyclic());
  // A -> B edge exists through the collapsed chain.
  const std::int32_t new_a = result.remap[static_cast<std::size_t>(a)];
  const std::int32_t new_b = result.remap[static_cast<std::size_t>(b)];
  const auto& succ = result.dag.Successors(new_a);
  EXPECT_NE(std::find(succ.begin(), succ.end(), new_b), succ.end());
  EXPECT_EQ(result.remap[static_cast<std::size_t>(r1)], -1);
}

TEST(Prune, NeverRemovesInputsOrOutputs) {
  OpDag dag;
  const auto in = dag.AddNode({NodeKind::kInput, 99, 0, {1, 1, 1, 1}});
  const auto out = dag.AddNode({NodeKind::kOutput, 99, 0, {1, 1, 1, 1}});
  dag.AddEdge(in, out);
  const PruneResult result = PruneDag(dag, [](const DagNode&) { return true; });
  EXPECT_EQ(result.dag.NumNodes(), 2);
  EXPECT_EQ(result.removed, 0);
}

TEST(Prune, PreservesReachabilityAmongSurvivors) {
  Rng rng(6);
  for (int trial = 0; trial < 4; ++trial) {
    OpDag dag;
    for (int i = 0; i < 30; ++i) {
      dag.AddNode(OpNode(static_cast<std::int32_t>(rng.NextBelow(4))));
    }
    for (std::int32_t u = 0; u < 30; ++u) {
      for (std::int32_t v = u + 1; v < 30; ++v) {
        if (rng.NextDouble() < 0.1) dag.AddEdge(u, v);
      }
    }
    const ReachabilityClosure before(dag);
    const PruneResult result =
        PruneDag(dag, [](const DagNode& n) { return n.op_type == 0; });
    ASSERT_TRUE(result.dag.IsAcyclic());
    const ReachabilityClosure after(result.dag);
    for (std::int32_t u = 0; u < 30; ++u) {
      if (result.remap[static_cast<std::size_t>(u)] < 0) continue;
      for (std::int32_t v = 0; v < 30; ++v) {
        if (result.remap[static_cast<std::size_t>(v)] < 0) continue;
        EXPECT_EQ(after.Reaches(result.remap[static_cast<std::size_t>(u)],
                                result.remap[static_cast<std::size_t>(v)]),
                  before.Reaches(u, v))
            << u << "->" << v;
      }
    }
  }
}

// ---- features / encoding ----

TEST(Features, OneHotLayoutPerPaperTable1) {
  OpDag dag;
  DagNode node;
  node.kind = NodeKind::kLiteral;
  node.op_type = 2;
  node.dtype = 1;
  node.out_dims = {1, 1, 3, 7};
  dag.AddNode(node);
  const std::int32_t ops = 5, dtypes = 3;
  const tensor::Tensor f = EncodeNodeFeatures(dag, ops, dtypes);
  EXPECT_EQ(f.dim(1), NodeFeatureWidth(ops, dtypes));
  // op one-hot at index 2
  EXPECT_EQ(f.at(0, 2), 1.0f);
  EXPECT_EQ(f.at(0, 0), 0.0f);
  // log-scaled dims after the op block
  EXPECT_FLOAT_EQ(f.at(0, ops + 2), std::log2(4.0f));
  EXPECT_FLOAT_EQ(f.at(0, ops + 3), std::log2(8.0f));
  // dtype one-hot
  EXPECT_EQ(f.at(0, ops + 4 + 1), 1.0f);
  // node-kind one-hot (literal = 1)
  EXPECT_EQ(f.at(0, ops + 4 + dtypes + 1), 1.0f);
}

TEST(Features, RejectsOutOfVocabulary) {
  OpDag dag;
  DagNode node;
  node.op_type = 9;
  dag.AddNode(node);
  EXPECT_THROW(EncodeNodeFeatures(dag, 5, 3), std::out_of_range);
}

TEST(EncodeGraph, ProducesConsistentArtifacts) {
  Rng rng(7);
  const OpDag dag = RandomDag(12, 0.2, rng);
  const EncodedGraph g = EncodeGraph(dag, 4, 3);
  EXPECT_EQ(g.num_nodes, 12);
  EXPECT_EQ(g.features.dim(0), 12);
  EXPECT_EQ(g.dagra_mask.size(), static_cast<std::size_t>(12 * MaskWords(12)));
  EXPECT_EQ(g.dagra_mask, BuildDagraBits(dag));
  EXPECT_EQ(g.depths.size(), 12u);
  // GCN adjacency: symmetric and rows indexable.
  ASSERT_NE(g.adj_norm, nullptr);
  EXPECT_EQ(g.adj_norm->rows, 12);
  // GAT edges: 2 per DAG edge + self-loops.
  EXPECT_EQ(g.edge_src.size(), static_cast<std::size_t>(2 * dag.NumEdges() + 12));
  EXPECT_EQ(g.edge_src.size(), g.edge_dst.size());
}

TEST(EncodeGraph, GcnAdjacencyIsSymmetricallyNormalized) {
  // Path 0 - 1: degrees with self-loops are 2 and 2; entry = 1/2.
  OpDag dag;
  dag.AddNode({});
  dag.AddNode({});
  dag.AddEdge(0, 1);
  const EncodedGraph g = EncodeGraph(dag, 1, 1);
  // Row 0: entries (0,0) = 1/2, (0,1) = 1/2.
  const auto& adj = *g.adj_norm;
  EXPECT_EQ(adj.Nnz(), 4u);
  for (const float v : adj.values) EXPECT_NEAR(v, 0.5f, 1e-6f);
}

/// Â the way a generic sparse builder makes it: COO triplets of both edge
/// directions plus self-loops, valued 1/sqrt(d_u * d_v), through
/// Csr::FromCoo (which sorts and merges duplicates).
tensor::Csr CooReferenceAdjacency(const OpDag& dag) {
  const auto n = dag.NumNodes();
  std::vector<std::int32_t> rows, cols;
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n), 1);
  for (const auto& [u, v] : dag.Edges()) {
    rows.insert(rows.end(), {u, v});
    cols.insert(cols.end(), {v, u});
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  for (std::int32_t i = 0; i < n; ++i) {
    rows.push_back(i);
    cols.push_back(i);
  }
  std::vector<float> values;
  for (std::size_t e = 0; e < rows.size(); ++e) {
    const float du = static_cast<float>(degree[static_cast<std::size_t>(rows[e])]);
    const float dv = static_cast<float>(degree[static_cast<std::size_t>(cols[e])]);
    values.push_back(1.0f / std::sqrt(du * dv));
  }
  return tensor::Csr::FromCoo(n, n, rows, cols, values);
}

void ExpectSameCsr(const tensor::Csr& got, const tensor::Csr& want, const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.cols, want.cols) << what;
  EXPECT_EQ(got.row_ptr, want.row_ptr) << what;
  EXPECT_EQ(got.col_idx, want.col_idx) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(float)),
            0)
      << what;
}

/// Random DAG over shuffled node ids with edges inserted in random order, so
/// adjacency lists are unsorted and edges run both up and down the ids.
OpDag ShuffledDag(std::int32_t n, double edge_prob, Rng& rng) {
  std::vector<std::int32_t> id(static_cast<std::size_t>(n));
  std::iota(id.begin(), id.end(), 0);
  for (std::int32_t i = n - 1; i > 0; --i) {
    std::swap(id[static_cast<std::size_t>(i)],
              id[static_cast<std::size_t>(rng.NextBelow(static_cast<std::uint64_t>(i) + 1))]);
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t u = 0; u < n; ++u) {
    for (std::int32_t v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < edge_prob) {
        edges.emplace_back(id[static_cast<std::size_t>(u)], id[static_cast<std::size_t>(v)]);
      }
    }
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[static_cast<std::size_t>(rng.NextBelow(i))]);
  }
  OpDag dag;
  for (std::int32_t i = 0; i < n; ++i) dag.AddNode({});
  for (const auto& [u, v] : edges) dag.AddEdge(u, v);
  return dag;
}

TEST(EncodeGraph, AdjacencyMatchesCooReference) {
  // Â is built row by row from the DAG's adjacency lists; it must equal the
  // generic COO build bit for bit, and Â^T must equal its transpose.
  Rng rng(0xad7);
  std::vector<std::pair<std::string, OpDag>> dags;
  for (int i = 0; i < 8; ++i) {
    const auto n = static_cast<std::int32_t>(1 + rng.NextBelow(90));
    dags.emplace_back("random " + std::to_string(i), RandomDag(n, 0.1, rng));
    dags.emplace_back("shuffled " + std::to_string(i), ShuffledDag(n, 0.15, rng));
  }
  for (const ir::StageSlice slice : {ir::StageSlice{0, 1}, ir::StageSlice{0, 4},
                                     ir::StageSlice{3, 9}, ir::StageSlice{0, 24}}) {
    dags.emplace_back("gpt3 " + std::to_string(slice.first_layer) + "-" +
                          std::to_string(slice.last_layer),
                      ir::BuildPrunedOpDag(ir::BuildGpt3Stage(ir::Gpt3Config{}, slice)));
  }
  for (const ir::StageSlice slice : {ir::StageSlice{0, 2}, ir::StageSlice{5, 11}}) {
    dags.emplace_back("moe " + std::to_string(slice.first_layer) + "-" +
                          std::to_string(slice.last_layer),
                      ir::BuildPrunedOpDag(ir::BuildMoeStage(ir::MoeConfig{}, slice)));
  }
  for (const auto& [what, dag] : dags) {
    const EncodedGraph g = EncodeGraph(dag, ir::kNumOpTypes, ir::kNumDTypes);
    ASSERT_NE(g.adj_norm, nullptr) << what;
    ASSERT_NE(g.adj_norm_t, nullptr) << what;
    const tensor::Csr want = CooReferenceAdjacency(dag);
    ExpectSameCsr(*g.adj_norm, want, what + " adj_norm");
    ExpectSameCsr(*g.adj_norm_t, g.adj_norm->Transposed(), what + " adj_norm_t");
  }
}

TEST(Fingerprint, ValuesArePinned) {
  // Fingerprints are cluster routing and cache keys: a faster encoder must
  // keep their values. Golden values for the default GPT-3 / MoE configs.
  struct Golden {
    std::string what;
    OpDag dag;
    std::uint64_t fingerprint;
    std::uint64_t dag_fingerprint;
  };
  const Golden cases[] = {
      {"gpt3 0-1", ir::BuildPrunedOpDag(ir::BuildGpt3Stage(ir::Gpt3Config{}, {0, 1})),
       0xa5b80a3344983f6bULL, 0xffb3138b6a588cb2ULL},
      {"gpt3 0-4", ir::BuildPrunedOpDag(ir::BuildGpt3Stage(ir::Gpt3Config{}, {0, 4})),
       0x8dcce62ac9fef7b3ULL, 0x1111e870d623775bULL},
      {"moe 0-2", ir::BuildPrunedOpDag(ir::BuildMoeStage(ir::MoeConfig{}, {0, 2})),
       0x91f5f7a05556ce3dULL, 0x51a33b455a8740fcULL},
  };
  for (const Golden& c : cases) {
    const EncodedGraph g = EncodeGraph(c.dag, ir::kNumOpTypes, ir::kNumDTypes);
    EXPECT_EQ(g.fingerprint, c.fingerprint) << c.what;
    EXPECT_EQ(DagFingerprint(c.dag), c.dag_fingerprint) << c.what;
    // A hand-assembled copy with the cache cleared recomputes the same value.
    EncodedGraph copy;
    copy.num_nodes = g.num_nodes;
    copy.features = g.features;
    copy.depths = g.depths;
    copy.edge_src = g.edge_src;
    copy.edge_dst = g.edge_dst;
    ASSERT_EQ(copy.fingerprint, 0u);
    EXPECT_EQ(EncodedGraphFingerprint(copy), c.fingerprint) << c.what;
  }
}

}  // namespace
}  // namespace predtop::graph
