#include "ir/to_dag.h"

#include <algorithm>
#include <span>
#include <vector>

namespace predtop::ir {

namespace {

graph::DagNode MakeNode(graph::NodeKind kind, OpType op, const TensorSpec& spec) {
  graph::DagNode node;
  node.kind = kind;
  node.op_type = static_cast<std::int32_t>(op);
  node.dtype = static_cast<std::int32_t>(spec.dtype);
  node.out_dims = {1, 1, 1, 1};
  // Right-align trailing dims into the fixed feature slots; fold any leading
  // overflow into slot 0 so the element count is preserved.
  const std::size_t rank = spec.dims.size();
  if (rank <= graph::kMaxFeatureDims) {
    for (std::size_t i = 0; i < rank; ++i) {
      node.out_dims[graph::kMaxFeatureDims - rank + i] = spec.dims[i];
    }
  } else {
    const std::size_t overflow = rank - graph::kMaxFeatureDims;
    for (std::size_t i = 0; i <= overflow; ++i) node.out_dims[0] *= spec.dims[i];
    for (std::size_t i = 1; i < graph::kMaxFeatureDims; ++i) {
      node.out_dims[i] = spec.dims[overflow + i];
    }
  }
  return node;
}

/// BuildOpDag's node u: value u for u < NumValues() (an input, a literal or
/// an equation's result), else the marker of output u - NumValues().
graph::DagNode RawNode(const StageProgram& program, std::size_t u) {
  const auto num_values = static_cast<std::size_t>(program.NumValues());
  if (u >= num_values) {
    return MakeNode(graph::NodeKind::kOutput, OpType::kNone,
                    program.value(program.outputs()[u - num_values]).spec);
  }
  const Value& value = program.values()[u];
  switch (value.kind) {
    case ValueKind::kInput:
      return MakeNode(graph::NodeKind::kInput, OpType::kNone, value.spec);
    case ValueKind::kLiteral:
      return MakeNode(graph::NodeKind::kLiteral, OpType::kNone, value.spec);
    case ValueKind::kEquationResult:
      break;
  }
  return MakeNode(graph::NodeKind::kOperator,
                  program.equations()[static_cast<std::size_t>(value.defining_equation)].op,
                  value.spec);
}

/// The nodes BuildOpDag's node u reads, in operand order: an equation's
/// operands, an output marker's value, nothing for inputs and literals.
std::span<const ValueId> RawOperands(const StageProgram& program, std::size_t u) {
  const auto num_values = static_cast<std::size_t>(program.NumValues());
  if (u >= num_values) return program.outputs().subspan(u - num_values, 1);
  const Value& value = program.values()[u];
  if (value.kind != ValueKind::kEquationResult) return {};
  return program.equations()[static_cast<std::size_t>(value.defining_equation)].operands;
}

bool IsPrunedNode(const StageProgram& program, std::size_t u) {
  if (u >= static_cast<std::size_t>(program.NumValues())) return false;
  const Value& value = program.values()[u];
  return value.kind == ValueKind::kEquationResult &&
         IsPrunableOp(program.equations()[static_cast<std::size_t>(value.defining_equation)].op);
}

std::size_t NumRawNodes(const StageProgram& program) {
  return static_cast<std::size_t>(program.NumValues()) + program.outputs().size();
}

}  // namespace

graph::OpDag BuildOpDag(const StageProgram& program) {
  graph::OpDag dag;
  for (std::size_t u = 0; u < NumRawNodes(program); ++u) {
    const std::int32_t node = dag.AddNode(RawNode(program, u));
    for (const ValueId p : RawOperands(program, u)) dag.AddEdge(p, node);
  }
  return dag;
}

graph::OpDag BuildPrunedOpDag(const StageProgram& program) {
  // The pruned DAG must list its nodes in graph::PruneDag's order, a FIFO
  // Kahn order of BuildOpDag's graph: sources (inputs and literals, wherever
  // the program declares them) first, then each node once its last operand
  // has been dequeued. That is not SSA order, so the raw successor lists are
  // kept — as one linked list per node in flat arrays, appended in consumer
  // order exactly as BuildOpDag's AddEdge would.
  const std::size_t n = NumRawNodes(program);
  std::vector<std::int32_t> indegree(n, 0);
  std::vector<std::int32_t> first_succ(n, -1);
  std::vector<std::int32_t> last_succ(n, -1);
  std::vector<std::int32_t> succ_node;
  std::vector<std::int32_t> succ_next;

  // One walk of the program. A pruned (shape-only) equation resolves to its
  // effective operands: the surviving values it reads through chains of
  // pruned equations, each once, in first-seen order — one flat buffer,
  // pruned node u's list is effective[first[u], last[u]).
  std::vector<char> pruned(n, 0);
  std::vector<std::int32_t> effective;
  std::vector<std::size_t> first(n, 0);
  std::vector<std::size_t> last(n, 0);
  std::vector<std::size_t> listed_for(n, n);  // listed_for[g] == u: g is in u's list
  for (std::size_t u = 0; u < n; ++u) {
    const std::span<const ValueId> operands = RawOperands(program, u);
    for (std::size_t k = 0; k < operands.size(); ++k) {
      const auto p = static_cast<std::size_t>(operands[k]);
      if (std::find(operands.begin(), operands.begin() + static_cast<std::ptrdiff_t>(k),
                    operands[k]) != operands.begin() + static_cast<std::ptrdiff_t>(k)) {
        continue;  // a repeated operand is one edge
      }
      const auto e = static_cast<std::int32_t>(succ_node.size());
      succ_node.push_back(static_cast<std::int32_t>(u));
      succ_next.push_back(-1);
      (last_succ[p] < 0 ? first_succ[p] : succ_next[static_cast<std::size_t>(last_succ[p])]) = e;
      last_succ[p] = e;
      ++indegree[u];
    }
    if (!IsPrunedNode(program, u)) continue;
    pruned[u] = 1;
    first[u] = effective.size();
    const auto list = [&](std::size_t g) {
      if (listed_for[g] == u) return;
      listed_for[g] = u;
      effective.push_back(static_cast<std::int32_t>(g));
    };
    for (const ValueId operand : operands) {
      const auto p = static_cast<std::size_t>(operand);
      if (!pruned[p]) {
        list(p);
        continue;
      }
      for (std::size_t k = first[p]; k < last[p]; ++k) list(static_cast<std::size_t>(effective[k]));
    }
    last[u] = effective.size();
  }

  std::vector<std::int32_t> order;
  order.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (indegree[u] == 0) order.push_back(static_cast<std::int32_t>(u));
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto u = static_cast<std::size_t>(order[head]);
    for (std::int32_t e = first_succ[u]; e >= 0; e = succ_next[static_cast<std::size_t>(e)]) {
      const auto v = static_cast<std::size_t>(succ_node[static_cast<std::size_t>(e)]);
      if (--indegree[v] == 0) order.push_back(static_cast<std::int32_t>(v));
    }
  }

  // Emit the survivors in that order, then each survivor's in-edges from
  // its (effective) operands in operand order; AddEdge drops repeats.
  graph::OpDag dag;
  std::vector<std::int32_t> remap(n, -1);
  for (const std::int32_t u : order) {
    const auto ui = static_cast<std::size_t>(u);
    if (!pruned[ui]) remap[ui] = dag.AddNode(RawNode(program, ui));
  }
  for (const std::int32_t u : order) {
    const auto ui = static_cast<std::size_t>(u);
    if (pruned[ui]) continue;
    for (const ValueId operand : RawOperands(program, ui)) {
      const auto p = static_cast<std::size_t>(operand);
      if (!pruned[p]) {
        dag.AddEdge(remap[p], remap[ui]);
        continue;
      }
      for (std::size_t k = first[p]; k < last[p]; ++k) {
        dag.AddEdge(remap[static_cast<std::size_t>(effective[k])], remap[ui]);
      }
    }
  }
  return dag;
}

}  // namespace predtop::ir
