#include "graph/fingerprint.h"

#include <bit>
#include <cstring>
#include <span>
#include <vector>

namespace predtop::graph {

namespace {

/// splitmix64 finalizer — full avalanche, so commutative sums of mixed
/// values still separate inputs well.
constexpr std::uint64_t Mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t Combine(std::uint64_t h, std::uint64_t v) noexcept {
  return Mix(h ^ Mix(v));
}

std::uint64_t FloatBits(float f) noexcept {
  // +0.0f and -0.0f compare equal but differ in bits; canonicalize so equal
  // feature matrices always fingerprint equally.
  if (f == 0.0f) f = 0.0f;
  return std::bit_cast<std::uint32_t>(f);
}

/// Flat neighbor lists: node i's neighbors are idx[ptr[i] .. ptr[i + 1]).
/// The sums below are commutative, so the order within a list is free.
struct NeighborLists {
  std::vector<std::int32_t> ptr;
  std::vector<std::int32_t> idx;
  [[nodiscard]] std::span<const std::int32_t> operator[](std::size_t i) const {
    return {idx.data() + ptr[i], static_cast<std::size_t>(ptr[i + 1] - ptr[i])};
  }
};

/// Counting-sort bucketing of `keys[e] -> vals[e]` by key into n lists.
NeighborLists Bucket(std::size_t n, const std::vector<std::int32_t>& keys,
                     const std::vector<std::int32_t>& vals) {
  NeighborLists out;
  out.ptr.assign(n + 1, 0);
  for (const std::int32_t k : keys) ++out.ptr[static_cast<std::size_t>(k) + 1];
  for (std::size_t i = 0; i < n; ++i) out.ptr[i + 1] += out.ptr[i];
  out.idx.resize(keys.size());
  std::vector<std::int32_t> cursor(out.ptr.begin(), out.ptr.end() - 1);
  for (std::size_t e = 0; e < keys.size(); ++e) {
    out.idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(keys[e])]++)] = vals[e];
  }
  return out;
}

/// A DAG's in-place adjacency and a bucketed edge list, read alike.
struct DagAdjacency {
  const OpDag& dag;
  [[nodiscard]] const std::vector<std::int32_t>& Preds(std::size_t i) const {
    return dag.Predecessors(static_cast<std::int32_t>(i));
  }
  [[nodiscard]] const std::vector<std::int32_t>& Succs(std::size_t i) const {
    return dag.Successors(static_cast<std::int32_t>(i));
  }
};

struct EdgeListAdjacency {
  NeighborLists preds;
  NeighborLists succs;
  [[nodiscard]] std::span<const std::int32_t> Preds(std::size_t i) const { return preds[i]; }
  [[nodiscard]] std::span<const std::int32_t> Succs(std::size_t i) const { return succs[i]; }
};

/// One WL refinement round: each node's hash absorbs the (commutative) sums
/// of its in- and out-neighbor hashes, kept separate so direction matters.
template <typename Adjacency>
void RefineRound(std::vector<std::uint64_t>& node_hash, std::vector<std::uint64_t>& next,
                 const Adjacency& adj) {
  for (std::size_t i = 0; i < node_hash.size(); ++i) {
    std::uint64_t in_sum = 0;
    std::uint64_t out_sum = 0;
    for (const std::int32_t p : adj.Preds(i)) {
      in_sum += Mix(node_hash[static_cast<std::size_t>(p)]);
    }
    for (const std::int32_t s : adj.Succs(i)) {
      out_sum += Mix(node_hash[static_cast<std::size_t>(s)]);
    }
    next[i] = Combine(Combine(node_hash[i], in_sum), Mix(out_sum) ^ 0x5bd1e995ULL);
  }
  node_hash.swap(next);
}

template <typename Adjacency>
std::uint64_t FinishFingerprint(std::vector<std::uint64_t> node_hash, const Adjacency& adj,
                                std::uint64_t num_edges) {
  std::vector<std::uint64_t> next(node_hash.size());
  RefineRound(node_hash, next, adj);
  RefineRound(node_hash, next, adj);
  // Commutative reduction over nodes and over refined edge endpoint pairs.
  std::uint64_t node_sum = 0;
  for (const std::uint64_t h : node_hash) node_sum += Mix(h);
  std::uint64_t edge_sum = 0;
  for (std::size_t v = 0; v < node_hash.size(); ++v) {
    for (const std::int32_t u : adj.Preds(v)) {
      edge_sum += Mix(node_hash[static_cast<std::size_t>(u)] ^
                      std::rotl(node_hash[v], 17));
    }
  }
  std::uint64_t fp = Combine(0x70726564746f70ULL, static_cast<std::uint64_t>(node_hash.size()));
  fp = Combine(fp, num_edges);
  fp = Combine(fp, node_sum);
  fp = Combine(fp, edge_sum);
  return fp;
}

}  // namespace

std::uint64_t DagFingerprint(const OpDag& dag) {
  const auto n = static_cast<std::size_t>(dag.NumNodes());
  std::vector<std::uint64_t> node_hash(n);
  for (std::size_t i = 0; i < n; ++i) {
    const DagNode& node = dag.Node(static_cast<std::int32_t>(i));
    std::uint64_t h = Combine(0x6461676eULL, static_cast<std::uint64_t>(node.kind));
    h = Combine(h, static_cast<std::uint64_t>(node.op_type));
    h = Combine(h, static_cast<std::uint64_t>(node.dtype));
    for (const std::int64_t d : node.out_dims) h = Combine(h, static_cast<std::uint64_t>(d));
    node_hash[i] = h;
  }
  return FinishFingerprint(std::move(node_hash), DagAdjacency{dag},
                           static_cast<std::uint64_t>(dag.NumEdges()));
}

std::uint64_t EncodedGraphFingerprint(const EncodedGraph& g) {
  // EncodeGraph caches the fingerprint at construction; recompute only for
  // hand-assembled graphs. (0 marks "unset" — a genuine zero hash would just
  // be recomputed, costing time, not correctness.)
  if (g.fingerprint != 0) return g.fingerprint;
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::vector<std::uint64_t> node_hash(n);
  const auto width = static_cast<std::size_t>(n > 0 ? g.features.dim(1) : 0);
  const float* features = g.features.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    node_hash[i] = Combine(0x656e63ULL, i < g.depths.size()
                                            ? static_cast<std::uint64_t>(g.depths[i])
                                            : 0ULL);
  }
  // Each node's hash is a serial chain over its feature row; advance eight
  // nodes' chains in lockstep so their multiplies overlap.
  constexpr std::size_t kLanes = 8;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    std::uint64_t h[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) h[l] = node_hash[i + l];
    for (std::size_t c = 0; c < width; ++c) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        h[l] = Combine(h[l], FloatBits(features[(i + l) * width + c]));
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) node_hash[i + l] = h[l];
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < width; ++c) {
      node_hash[i] = Combine(node_hash[i], FloatBits(features[i * width + c]));
    }
  }
  // The GAT edge list (bidirectional + self-loops) is a deterministic
  // function of the DAG's edges, so it carries the full structure.
  return FinishFingerprint(std::move(node_hash),
                           EdgeListAdjacency{Bucket(n, g.edge_dst, g.edge_src),
                                             Bucket(n, g.edge_src, g.edge_dst)},
                           static_cast<std::uint64_t>(g.edge_src.size()));
}

}  // namespace predtop::graph
