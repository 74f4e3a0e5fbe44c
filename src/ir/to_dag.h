#pragma once
// Bridge from the IR to the predictor-facing graph representation (paper
// §IV-B2/§IV-B4): one DAG node per input/literal value and per equation,
// plus explicit output nodes, then optional pruning of shape-only ops.

#include "graph/op_dag.h"
#include "ir/program.h"

namespace predtop::ir {

/// Convert a stage program into an operator DAG carrying the Tbl. I node
/// features. Nodes: inputs and literals (kind input/literal, op "none"),
/// one node per equation (kind operator), and one output node per program
/// output.
[[nodiscard]] graph::OpDag BuildOpDag(const StageProgram& program);

/// BuildOpDag followed by graph::PruneDag of reshape / broadcast /
/// convert_element_type nodes (paper §IV-B4), node for node and edge for
/// edge, in one walk of the program: no raw OpDag is built.
[[nodiscard]] graph::OpDag BuildPrunedOpDag(const StageProgram& program);

}  // namespace predtop::ir
