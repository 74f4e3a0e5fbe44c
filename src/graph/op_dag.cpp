#include "graph/op_dag.h"

#include <algorithm>
#include <stdexcept>

namespace predtop::graph {

std::int32_t OpDag::AddNode(DagNode node) {
  nodes_.push_back(node);
  succ_.emplace_back();
  pred_.emplace_back();
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void OpDag::AddEdge(std::int32_t u, std::int32_t v) {
  const auto n = static_cast<std::int32_t>(nodes_.size());
  if (u < 0 || v < 0 || u >= n || v >= n) throw std::out_of_range("OpDag::AddEdge: bad index");
  if (u == v) throw std::invalid_argument("OpDag::AddEdge: self-loop not allowed in a DAG");
  // u -> v exists iff v is among u's successors iff u is among v's
  // predecessors: search the shorter list, so a node with a wide fan-out
  // costs nothing when its consumers have few operands.
  auto& out = succ_[static_cast<std::size_t>(u)];
  auto& in = pred_[static_cast<std::size_t>(v)];
  const bool duplicate = out.size() <= in.size()
                             ? std::find(out.begin(), out.end(), v) != out.end()
                             : std::find(in.begin(), in.end(), u) != in.end();
  if (duplicate) return;
  out.push_back(v);
  in.push_back(u);
  ++num_edges_;
}

std::optional<std::vector<std::int32_t>> OpDag::TopologicalOrder() const {
  const auto n = static_cast<std::size_t>(nodes_.size());
  std::vector<std::int32_t> indegree(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<std::int32_t>(pred_[v].size());
  }
  std::vector<std::int32_t> queue;
  queue.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) queue.push_back(static_cast<std::int32_t>(v));
  }
  std::vector<std::int32_t> order;
  order.reserve(n);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int32_t u = queue[head];
    order.push_back(u);
    for (const std::int32_t v : succ_[static_cast<std::size_t>(u)]) {
      if (--indegree[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
    }
  }
  if (order.size() != n) return std::nullopt;  // cycle
  return order;
}

std::vector<std::pair<std::int32_t, std::int32_t>> OpDag::Edges() const {
  std::vector<std::pair<std::int32_t, std::int32_t>> out;
  out.reserve(static_cast<std::size_t>(num_edges_));
  for (std::size_t u = 0; u < succ_.size(); ++u) {
    for (const std::int32_t v : succ_[u]) out.emplace_back(static_cast<std::int32_t>(u), v);
  }
  return out;
}

}  // namespace predtop::graph
