#include "graph/prune.h"

#include <stdexcept>

namespace predtop::graph {

PruneResult PruneDag(const OpDag& dag,
                     const std::function<bool(const DagNode&)>& should_prune) {
  const auto order = dag.TopologicalOrder();
  if (!order) throw std::invalid_argument("PruneDag: graph has a cycle");
  const auto n = static_cast<std::size_t>(dag.NumNodes());

  std::vector<bool> pruned(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const DagNode& node = dag.Node(static_cast<std::int32_t>(i));
    const bool protected_kind = node.kind == NodeKind::kInput || node.kind == NodeKind::kOutput;
    pruned[i] = !protected_kind && should_prune(node);
  }

  // For each pruned node, its "effective predecessors" are the surviving
  // ancestors seen through chains of pruned nodes, each once, in first-seen
  // order. Processing in topological order lets each pruned node reuse its
  // pruned predecessors' lists. All lists share one flat buffer: pruned
  // node u's is effective[first[u], last[u]). Dropping repeats does not
  // change the result, since AddEdge ignores duplicate edges.
  std::vector<std::int32_t> effective;
  std::vector<std::size_t> first(n, 0);
  std::vector<std::size_t> last(n, 0);
  std::vector<std::int32_t> listed_for(n, -1);  // listed_for[g] == u: g is in u's list
  PruneResult result;
  result.remap.assign(n, -1);
  for (const std::int32_t u : *order) {
    const auto ui = static_cast<std::size_t>(u);
    if (!pruned[ui]) {
      result.remap[ui] = result.dag.AddNode(dag.Node(u));
      continue;
    }
    ++result.removed;
    first[ui] = effective.size();
    const auto list = [&](std::int32_t g) {
      if (listed_for[static_cast<std::size_t>(g)] == u) return;
      listed_for[static_cast<std::size_t>(g)] = u;
      effective.push_back(g);
    };
    for (const std::int32_t p : dag.Predecessors(u)) {
      const auto pi = static_cast<std::size_t>(p);
      if (!pruned[pi]) {
        list(p);
        continue;
      }
      for (std::size_t k = first[pi]; k < last[pi]; ++k) list(effective[k]);
    }
    last[ui] = effective.size();
  }
  for (const std::int32_t v : *order) {
    const auto vi = static_cast<std::size_t>(v);
    if (pruned[vi]) continue;
    for (const std::int32_t p : dag.Predecessors(v)) {
      const auto pi = static_cast<std::size_t>(p);
      if (!pruned[pi]) {
        result.dag.AddEdge(result.remap[pi], result.remap[vi]);
        continue;
      }
      for (std::size_t k = first[pi]; k < last[pi]; ++k) {
        result.dag.AddEdge(result.remap[static_cast<std::size_t>(effective[k])], result.remap[vi]);
      }
    }
  }
  return result;
}

}  // namespace predtop::graph
