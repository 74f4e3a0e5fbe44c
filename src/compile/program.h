#pragma once
// Compiled inference programs (the tentpole of predtop::compile).
//
// A predictor's inference forward is a fixed op sequence once the graph's
// shape class (node count, edge count) is known. Instead of re-deciding
// kernel tiers, taking per-layer weight-cache locks, and allocating dozens of
// intermediates on every call, we *record* that sequence once into an
// InferProgram, the only inference engine (the autograd tape serves training
// and is the parity reference):
//
//  - ProgramBuilder records the module-level ops of the predictor's Forward
//    (one Step per Linear / activation / norm / graph op, and one fused step
//    per attention block up to W_o);
//  - the fusion pass (fuse.h) pattern-matches Linear+activation and
//    Linear+residual+LayerNorm into single fused steps backed by the kernels
//    in tensor/fused.h;
//  - the static planner (planner.h) computes first-use/last-use intervals
//    per intermediate and assigns fixed offsets in one flat buffer, so a
//    warm forward performs zero allocation and zero cursor arithmetic;
//  - weight snapshots (per-step shared_ptr into nn::Linear's epoch-keyed
//    packs, plus a combined q|k|v pack per attention) are revalidated with a
//    single epoch check per forward instead of one mutex per Linear.
//
// Programs are cached per (predictor instance, shape class) in a global LRU
// (cache.h); their weight snapshots are invalidated by nn::ParameterEpoch
// exactly like the per-Linear packs.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/encode.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "tensor/fused.h"

namespace predtop::compile {

/// Index into InferProgram::values. Values are SSA-ish: each is defined by
/// exactly one step; in-place steps (kScale, kAdd, ...) reuse their input id
/// as `out`, which extends the value's live range instead of minting a new
/// one.
using ValueId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

/// External input slots resolved at execution time (never planned).
enum class External : std::int8_t {
  kNone = -1,
  kFeatures = 0,  // g.features, (n, feature_dim)
  kDepthPe = 1,   // ExecInputs::pe, (n, dagt_dim)
};

struct ValueInfo {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  External external = External::kNone;

  [[nodiscard]] std::int64_t size() const noexcept { return rows * cols; }
};

enum class OpKind : std::uint8_t {
  // Linear family (weight snapshots; tier resolved at build time).
  kLinear,             // out = a W + b(ias)
  kLinearAct,          // fused: out = act(a W + bias)
  kLinearResidualNorm, // fused: out = LayerNorm(a W + bias + b, gain, beta)
  kFusedAttention,     // out = multihead masked attention of a, before W_o
                       // (combined qkv pack; scalar = 1/sqrt(head_dim))
  // Unfused building blocks (in-place ops keep out == a).
  kScale,         // a *= scalar
  kAdd,           // a += b
  kRelu,          // a = relu(a)
  kLeakyRelu,     // a = leaky_relu(a, scalar)
  kLayerNorm,     // out = LayerNorm(a, gain, bias)
  // Graph / pooling ops.
  kSpmm,          // out = g.adj_norm * a
  kPool,          // out = column sums of a, (1, cols)
  kConcat2,       // out = [a | b], rows must match
  kMatVec,        // out(i, 0) = dot(a.row(i), gain)   [GAT attention scores]
  kEdgeScores,    // out(e, 0) = a[edge_src[e]] + b[edge_dst[e]]
  kSegmentSoftmax,// out = softmax of a grouped by edge_dst (rows = edges)
  kGatherRows,    // out = a[edge list selected by edge_sel]
  kRowScale,      // a(i, :) *= b(i, 0)
  kSegmentSum,    // out = sum of a rows grouped by edge_dst
  kAddRowVector,  // a += gain broadcast over rows
};

/// GEMM tier resolved at build time from the (m, k, n) the step will always
/// see — the same predicates tensor::MatMul dispatches on.
enum class GemmTier : std::uint8_t { kPacked, kNarrow, kNaive };

struct Step {
  OpKind kind{};
  ValueId out = kNoValue;
  ValueId a = kNoValue;
  ValueId b = kNoValue;
  const nn::Linear* linear = nullptr;
  const nn::MultiheadMaskedAttention* attn = nullptr;
  /// LayerNorm gain / MatVec vector / AddRowVector bias, depending on kind.
  const autograd::Variable* gain = nullptr;
  const autograd::Variable* bias = nullptr;
  tensor::fused::Act act = tensor::fused::Act::kNone;
  float scalar = 0.0f;
  GemmTier tier = GemmTier::kNaive;
  bool use_mask = false;
  std::uint8_t edge_sel = 0;  // kGatherRows: 0 = edge_src, 1 = edge_dst
  std::int32_t aux = -1;      // kFusedAttention: index into Snapshot::attn
};

/// Execution-time inputs. `mask` / `pe` are supplied by the predictor that
/// owns the program (it knows its ablation flags and per-graph caches).
struct ExecInputs {
  const graph::EncodedGraph* g = nullptr;
  /// Bit-packed reachability mask, n rows of graph::MaskWords(n) words
  /// (EncodedGraph::dagra_mask); empty = unmasked attention.
  std::span<const std::uint64_t> mask;
  const float* pe = nullptr;  // depth positional encoding rows
};

class InferProgram {
 public:
  /// Shape class the program was recorded for; Execute() refuses others.
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  std::int64_t feature_dim = 0;

  std::vector<ValueInfo> values;
  std::vector<Step> steps;
  ValueId output = kNoValue;

  /// Static plan: per-value offsets into one flat buffer (kNoOffset for
  /// externals and dead values), the planned activation floats, the shared
  /// scratch region appended after them, and the buffer total.
  static constexpr std::int64_t kNoOffset = -1;
  std::vector<std::int64_t> offsets;
  std::int64_t arena_floats = 0;
  std::int64_t scratch_floats = 0;
  [[nodiscard]] std::int64_t PlanFloats() const noexcept {
    return arena_floats + scratch_floats;
  }

  /// Per-epoch weight snapshot shared by every thread executing the program.
  struct AttnSnap {
    tensor::PackedB qkv;      // combined [Wq | Wk | Wv] pack
    std::vector<float> bias;  // bq | bk | bv, 3 * dim
  };
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::vector<std::shared_ptr<const nn::Linear::InferWeights>> lin;  // per step
    std::vector<AttnSnap> attn;  // indexed by Step::aux
  };

  /// Current snapshot, rebuilt when ParameterEpoch moved since the last call
  /// (one lock + one atomic check per forward).
  [[nodiscard]] std::shared_ptr<const Snapshot> CurrentSnapshot() const;

 private:
  mutable std::mutex snap_mutex_;
  mutable std::shared_ptr<const Snapshot> snap_;
};

/// Records the op sequence for one predictor forward. The builder
/// validates shapes as it goes and throws std::invalid_argument on a
/// mismatch, so a recorded program never faults at execution time.
class ProgramBuilder {
 public:
  ProgramBuilder(std::int64_t num_nodes, std::int64_t num_edges, std::int64_t feature_dim);

  [[nodiscard]] ValueId Input(External slot, std::int64_t rows, std::int64_t cols);
  [[nodiscard]] ValueId Linear(const nn::Linear& layer, ValueId x);
  void Scale(ValueId a, float s);
  void Add(ValueId a, ValueId b);
  void Relu(ValueId a);
  void LeakyRelu(ValueId a, float negative_slope);
  [[nodiscard]] ValueId LayerNorm(ValueId x, const autograd::Variable& gain,
                                  const autograd::Variable& bias);
  /// Multihead masked attention of x up to (not including) the W_o
  /// projection: q/k/v projections, per-head softmax(q k^T / sqrt(head_dim)
  /// + mask) v, heads concatenated. One kFusedAttention step, bit-identical
  /// to the tape's forward.
  [[nodiscard]] ValueId Attention(const nn::MultiheadMaskedAttention& attn, ValueId x,
                                  bool use_mask);
  [[nodiscard]] ValueId Spmm(ValueId x);
  [[nodiscard]] ValueId Pool(ValueId x);
  [[nodiscard]] ValueId Concat2(ValueId a, ValueId b);
  [[nodiscard]] ValueId MatVec(ValueId x, const autograd::Variable& vec);
  [[nodiscard]] ValueId EdgeScores(ValueId src_scores, ValueId dst_scores);
  [[nodiscard]] ValueId SegmentSoftmax(ValueId e);
  [[nodiscard]] ValueId GatherRows(ValueId x, bool by_dst);
  void RowScale(ValueId x, ValueId s);
  [[nodiscard]] ValueId SegmentSum(ValueId x);
  void AddRowVector(ValueId x, const autograd::Variable& bias);

  /// Run the fusion pass, resolve GEMM tiers, plan the buffer, and seal the
  /// program. Ops the fuser declines stay unfused and execute as recorded.
  [[nodiscard]] std::shared_ptr<InferProgram> Finish(ValueId output);

 private:
  [[nodiscard]] ValueId NewValue(std::int64_t rows, std::int64_t cols,
                                 External external = External::kNone);
  [[nodiscard]] const ValueInfo& Info(ValueId v) const;

  std::shared_ptr<InferProgram> p_;
};

/// Run the program, writing the scalar output to *out. Throws
/// std::invalid_argument (without touching `out`) when the inputs do not
/// match the program: another shape class or feature width, a missing mask,
/// depth encoding or normalized adjacency the program reads, or edge lists
/// of unequal length. A warm call performs no allocation: activations and
/// scratch live in a thread-local grow-only buffer at the planner's fixed
/// offsets.
void Execute(const InferProgram& p, const ExecInputs& in, float* out);

/// Size in floats of the calling thread's plan buffer (test hook: warm
/// forwards must never grow it).
[[nodiscard]] std::int64_t ThreadPlanBufferFloats() noexcept;

}  // namespace predtop::compile
