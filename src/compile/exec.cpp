#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/program.h"
#include "graph/reachability.h"
#include "tensor/fused.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

namespace predtop::compile {

namespace {

/// Per-graph open-lane structure of the DAGRA reachability mask, shared by
/// every attention step of one forward (the mask is identical across layers
/// and heads). Grow-only members so a warm rebuild never allocates.
struct MaskRuns {
  /// Per-row window hull: lanes outside [win_lo[i], win_hi[i]) are -inf.
  std::vector<std::int32_t> win_lo;
  std::vector<std::int32_t> win_hi;
  /// Open-lane runs, CSR over rows: row i's [lo, hi) pairs live at
  /// chunk_bounds[2 * chunk_start[i] .. 2 * chunk_start[i + 1]).
  std::vector<std::int32_t> chunk_start;
  std::vector<std::int32_t> chunk_bounds;
  /// Per GEMM row block (kGemmMr rows): the block's row runs merged and
  /// rounded out to packed-panel granularity — the column ranges the logits
  /// GEMM must actually compute.
  std::vector<std::int32_t> brun_start;
  std::vector<std::int32_t> brun_bounds;
  std::vector<std::int32_t> brun_scratch;
};

/// Thread-local execution state: the flat plan buffer and the per-row mask
/// windows. Grow-only so a warm forward never allocates.
struct ExecState {
  std::vector<float> buf;
  MaskRuns runs;
};

ExecState& ThreadExecState() {
  thread_local ExecState state;
  return state;
}

/// True when the program contains a fused-attention step (the only consumer
/// of MaskRuns).
bool NeedsMaskRuns(const InferProgram& p) noexcept {
  for (const Step& s : p.steps) {
    if (s.kind == OpKind::kFusedAttention) return true;
  }
  return false;
}

/// The shape/presence checks Execute performs before touching the plan
/// buffer; throws std::invalid_argument naming the first mismatch.
void CheckInputs(const InferProgram& p, const ExecInputs& in) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("compile::Execute: ") + what);
  };
  if (in.g == nullptr || p.output == kNoValue) reject("no graph or empty program");
  const graph::EncodedGraph& g = *in.g;
  if (g.num_nodes != p.num_nodes ||
      static_cast<std::int64_t>(g.edge_src.size()) != p.num_edges) {
    reject("graph shape class differs from the program's");
  }
  if (g.features.rank() != 2 || g.features.dim(0) != p.num_nodes ||
      g.features.dim(1) != p.feature_dim) {
    reject("feature width mismatch");
  }

  bool wants_mask = false;
  bool wants_adj = false;
  bool wants_edges = false;
  for (const Step& s : p.steps) {
    switch (s.kind) {
      case OpKind::kFusedAttention: wants_mask |= s.use_mask; break;
      case OpKind::kSpmm: wants_adj = true; break;
      case OpKind::kEdgeScores:
      case OpKind::kSegmentSoftmax:
      case OpKind::kGatherRows:
      case OpKind::kSegmentSum: wants_edges = true; break;
      default: break;
    }
  }
  bool wants_pe = false;
  for (const ValueInfo& v : p.values) {
    if (v.external == External::kDepthPe) wants_pe = true;
  }
  if (wants_mask && static_cast<std::int64_t>(in.mask.size()) !=
                        p.num_nodes * graph::MaskWords(p.num_nodes)) {
    reject("missing or misshapen attention mask");
  }
  if (wants_pe && in.pe == nullptr) reject("missing depth encoding");
  if (wants_adj && (g.adj_norm == nullptr || g.adj_norm->rows != p.num_nodes)) {
    reject("missing normalized adjacency");
  }
  if (wants_edges && g.edge_dst.size() != g.edge_src.size()) {
    reject("edge_src and edge_dst differ in length");
  }
}

/// y(m, n) = x(m, k) * W with the tier resolved at build time — the same
/// kernels as tensor::MatMul's dispatch, against the snapshot's cached packs.
void LinearGemm(const Step& s, const std::shared_ptr<const nn::Linear::InferWeights>& w,
                const float* x, std::int64_t m, float* y) {
  const nn::Linear& lin = *s.linear;
  const std::int64_t k = lin.InFeatures();
  const std::int64_t n = lin.OutFeatures();
  switch (s.tier) {
    case GemmTier::kPacked:
      tensor::MatMulPackedInto(x, m, w->pack, y);
      break;
    case GemmTier::kNarrow: {
      const float* wt = w->weight_t.data().data();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* xrow = x + i * k;
        float* yrow = y + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          yrow[j] = tensor::simd::Dot(xrow, wt + j * k, k);
        }
      }
      break;
    }
    case GemmTier::kNaive: {
      std::fill(y, y + m * n, 0.0f);
      const float* pw = lin.Weight().value().data().data();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* xrow = x + i * k;
        float* yrow = y + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = xrow[kk];
          if (av == 0.0f) continue;  // same skip as the training kernel
          const float* wrow = pw + kk * n;
          for (std::int64_t j = 0; j < n; ++j) yrow[j] += av * wrow[j];
        }
      }
      break;
    }
  }
}

[[nodiscard]] const float* LinearBias(const Step& s) {
  const autograd::Variable* b = s.linear->Bias();
  return b != nullptr ? b->value().data().data() : nullptr;
}

/// First lane in [j, n) whose mask bit equals `set` (n when none): a word
/// scan with count-trailing-zeros. Padding bits past n are zero, so a search
/// for a clear bit stops at n by itself.
std::int64_t NextLane(const std::uint64_t* row, std::int64_t words, std::int64_t n,
                      std::int64_t j, bool set) noexcept {
  if (j >= n) return n;
  std::int64_t w = j / 64;
  std::uint64_t x = (set ? row[w] : ~row[w]) & (~0ULL << (j % 64));
  while (x == 0) {
    if (++w == words) return n;
    x = set ? row[w] : ~row[w];
  }
  return std::min(n, w * 64 + std::countr_zero(x));
}

/// Scan in.mask (or synthesize full windows when the program's attention is
/// unmasked) into `state`. Warm calls reuse the vectors' capacity.
void BuildMaskRuns(const InferProgram& p, const ExecInputs& in, MaskRuns& state) {
  bool wants_mask = false;
  for (const Step& s : p.steps) {
    if (s.kind == OpKind::kFusedAttention && s.use_mask) wants_mask = true;
  }
  const std::int64_t n = p.num_nodes;
  if (static_cast<std::int64_t>(state.win_lo.size()) < n) {
    state.win_lo.resize(static_cast<std::size_t>(n));
    state.win_hi.resize(static_cast<std::size_t>(n));
  }
  state.chunk_start.resize(static_cast<std::size_t>(n) + 1);
  state.chunk_bounds.clear();
  state.chunk_start[0] = 0;
  if (wants_mask && !in.mask.empty()) {
    const std::int64_t words = graph::MaskWords(n);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* mrow = in.mask.data() + i * words;
      for (std::int64_t j = NextLane(mrow, words, n, 0, true); j < n;
           j = NextLane(mrow, words, n, j, true)) {
        const std::int64_t lo = j;
        j = NextLane(mrow, words, n, j, false);
        state.chunk_bounds.push_back(static_cast<std::int32_t>(lo));
        state.chunk_bounds.push_back(static_cast<std::int32_t>(j));
      }
      const std::int32_t end = static_cast<std::int32_t>(state.chunk_bounds.size() / 2);
      const std::int32_t begin = state.chunk_start[static_cast<std::size_t>(i)];
      state.chunk_start[static_cast<std::size_t>(i) + 1] = end;
      // Row window = hull of the row's runs (empty rows keep lo == hi == n,
      // matching the historical two-ended scan).
      if (end > begin) {
        state.win_lo[static_cast<std::size_t>(i)] = state.chunk_bounds[2 * begin];
        state.win_hi[static_cast<std::size_t>(i)] = state.chunk_bounds[2 * end - 1];
      } else {
        state.win_lo[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(n);
        state.win_hi[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(n);
      }
    }
  } else {
    std::fill(state.win_lo.begin(), state.win_lo.begin() + n, 0);
    std::fill(state.win_hi.begin(), state.win_hi.begin() + n,
              static_cast<std::int32_t>(p.num_nodes));
    for (std::int64_t i = 0; i < n; ++i) {
      state.chunk_bounds.push_back(0);
      state.chunk_bounds.push_back(static_cast<std::int32_t>(n));
      state.chunk_start[static_cast<std::size_t>(i) + 1] =
          static_cast<std::int32_t>(i) + 1;
    }
  }
  // Merge each GEMM row block's runs at packed-panel granularity: the
  // logits GEMM computes only these column ranges (a panel in a gap is
  // provably outside every block row's open runs).
  const std::int64_t blocks = (n + tensor::kGemmMr - 1) / tensor::kGemmMr;
  state.brun_start.resize(static_cast<std::size_t>(blocks) + 1);
  state.brun_bounds.clear();
  state.brun_start[0] = 0;
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t r0 = b * tensor::kGemmMr;
    const std::int64_t r1 = std::min<std::int64_t>(n, r0 + tensor::kGemmMr);
    auto& runs = state.brun_scratch;
    runs.clear();
    for (std::int64_t i = r0; i < r1; ++i) {
      for (std::int32_t c = state.chunk_start[static_cast<std::size_t>(i)];
           c < state.chunk_start[static_cast<std::size_t>(i) + 1]; ++c) {
        const std::int32_t lo =
            state.chunk_bounds[2 * c] / tensor::kGemmPanel * tensor::kGemmPanel;
        const std::int32_t hi = static_cast<std::int32_t>(std::min<std::int64_t>(
            n, (state.chunk_bounds[2 * c + 1] + tensor::kGemmPanel - 1) /
                   tensor::kGemmPanel * tensor::kGemmPanel));
        runs.push_back(lo);
        runs.push_back(hi);
      }
    }
    // Sort run pairs by lo, then sweep-merge overlapping/adjacent ranges.
    const std::int64_t pairs = static_cast<std::int64_t>(runs.size()) / 2;
    for (std::int64_t a = 1; a < pairs; ++a) {  // insertion sort; runs are few
      const std::int32_t lo = runs[2 * a], hi = runs[2 * a + 1];
      std::int64_t t = a - 1;
      while (t >= 0 && runs[2 * t] > lo) {
        runs[2 * t + 2] = runs[2 * t];
        runs[2 * t + 3] = runs[2 * t + 1];
        --t;
      }
      runs[2 * t + 2] = lo;
      runs[2 * t + 3] = hi;
    }
    for (std::int64_t a = 0; a < pairs; ++a) {
      const std::int32_t lo = runs[2 * a], hi = runs[2 * a + 1];
      const std::size_t sz = state.brun_bounds.size();
      if (sz > state.brun_start[static_cast<std::size_t>(b)] * 2ull &&
          lo <= state.brun_bounds[sz - 1]) {
        state.brun_bounds[sz - 1] = std::max(state.brun_bounds[sz - 1], hi);
      } else {
        state.brun_bounds.push_back(lo);
        state.brun_bounds.push_back(hi);
      }
    }
    state.brun_start[static_cast<std::size_t>(b) + 1] =
        static_cast<std::int32_t>(state.brun_bounds.size() / 2);
  }
}

/// Mask-aware fused attention: combined q|k|v projection, then per head and
/// per kGemmMr-row block: the logits tile over the block's merged panel runs,
/// the tape's scaled masked softmax over each row's window, and the
/// weights * V tile over the open k lanes, written straight into the head's
/// column block of the output. Lanes outside a row's window are -inf masked,
/// so their weights are exact zeros and skipping them leaves every
/// accumulation bit-identical. Each per-head product accumulates in the
/// order of tensor::MatMul's tier for its shape (the packed and naive tiers
/// share one order; the narrow tier is a lane-split simd::Dot), and the
/// softmax is the tape's RowSoftmax, so the step matches the tape's
/// attention bit for bit at any dim, head dim and scale.
void RunFusedAttention(const InferProgram& p, const Step& s, const ExecInputs& in,
                       const InferProgram::Snapshot& snap, const float* x, float* y,
                       float* scratch, const MaskRuns& state) {
  const nn::MultiheadMaskedAttention& at = *s.attn;
  const std::int64_t n = p.num_nodes;
  const std::int64_t d = at.Dim();
  const std::int64_t hd = at.HeadDim();
  const std::int64_t d3 = 3 * d;
  const InferProgram::AttnSnap& as = snap.attn[static_cast<std::size_t>(s.aux)];
  const std::uint64_t* mask = s.use_mask && !in.mask.empty() ? in.mask.data() : nullptr;
  const std::int64_t mask_words = graph::MaskWords(n);
  // tensor::MatMul's narrow tier: an output narrower than 16 columns over
  // k >= 16, for q_h k_h^T (output n wide) and weights * v_h (hd wide).
  const bool narrow_logits = n < 16 && hd >= 16;
  const bool narrow_values = hd < 16 && n >= 16;

  float* qkv = scratch;
  float* kpack = qkv + n * d3;
  float* vbuf = kpack + tensor::PackedBFloats(hd, n);  // v_h packed, or v_h^T
  float* tile = vbuf + tensor::PackedBFloats(n, hd);   // kGemmMr rows of n lanes

  tensor::MatMulPackedViewStridedInto(x, n, d, tensor::ViewOf(as.qkv), qkv, d3);
  tensor::fused::BiasActRows(qkv, n, d3, d3, as.bias.data(), tensor::fused::Act::kNone);

  const std::int32_t* wlo = state.win_lo.data();
  const std::int32_t* whi = state.win_hi.data();
  const std::int32_t* bstart = state.brun_start.data();
  const std::int32_t* bbounds = state.brun_bounds.data();
  // Row i's softmax span: its window widened to whole 16-lane groups.
  const auto span_lo = [&](std::int64_t i) -> std::int64_t { return wlo[i] / 16 * 16; };
  const auto span_hi = [&](std::int64_t i) -> std::int64_t {
    return std::min<std::int64_t>(n, (whi[i] + 15) / 16 * 16);
  };

  for (std::int64_t h = 0; h < at.Heads(); ++h) {
    const std::int64_t off = h * hd;
    const float* q = qkv + off;
    const float* k = qkv + d + off;
    const float* v = qkv + 2 * d + off;
    tensor::PackBTransposedIntoBuf(k, hd, n, kpack, d3);
    if (narrow_values) {
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < hd; ++j) vbuf[j * n + i] = v[i * d3 + j];
      }
    } else {
      tensor::PackBIntoBuf(v, n, hd, vbuf, d3);
    }
    const tensor::PackedBView kview{kpack, hd, n};
    const tensor::PackedBView vview{vbuf, n, hd};
    for (std::int64_t i = 0; i < n; i += tensor::kGemmMr) {
      const int mr = static_cast<int>(std::min<std::int64_t>(tensor::kGemmMr, n - i));
      const std::int64_t b = i / tensor::kGemmMr;
      // logits = q_h k_h^T over the block's merged panel runs (the softmax
      // never reads the gaps between runs).
      if (narrow_logits) {
        for (int r = 0; r < mr; ++r) {
          for (std::int64_t j = 0; j < n; ++j) {
            tile[r * n + j] = tensor::simd::Dot(q + (i + r) * d3, k + j * d3, hd);
          }
        }
      } else {
        for (std::int32_t c = bstart[b]; c < bstart[b + 1]; ++c) {
          tensor::PackedViewTile(q + i * d3, d3, kview, tile, n, mr, bbounds[2 * c],
                                 bbounds[2 * c + 1], 0, hd);
        }
      }
      for (int r = 0; r < mr; ++r) {
        tensor::fused::MaskedSoftmaxRow(tile + r * n, n,
                                        mask != nullptr ? mask + (i + r) * mask_words : nullptr,
                                        s.scalar, span_lo(i + r), span_hi(i + r));
      }
      // y[i:i+mr, off:off+hd] = weights * v_h over the open k lanes.
      float* yblock = y + i * d + off;
      if (narrow_values) {
        for (int r = 0; r < mr; ++r) {
          // Dot's tail runs over all of [n16, n): zero what the span left out.
          float* row = tile + r * n;
          std::fill(row + std::max(span_hi(i + r), n / 16 * 16), row + n, 0.0f);
          tensor::simd::DotWindowColumns(row, vbuf, n, hd, n, wlo[i + r], whi[i + r],
                                         yblock + r * d);
        }
      } else {
        // One k window for the whole block: zero each row outside its span.
        std::int64_t blo = n, bhi = 0;
        for (int r = 0; r < mr; ++r) {
          blo = std::min<std::int64_t>(blo, span_lo(i + r));
          bhi = std::max<std::int64_t>(bhi, span_hi(i + r));
        }
        for (int r = 0; r < mr; ++r) {
          float* row = tile + r * n;
          std::fill(row + blo, row + std::max(blo, span_lo(i + r)), 0.0f);
          std::fill(row + std::min(bhi, span_hi(i + r)), row + bhi, 0.0f);
        }
        tensor::PackedViewTile(tile, n, vview, yblock, d, mr, 0, hd, blo, bhi);
      }
    }
  }
}

void RunSegmentSoftmax(const InferProgram& p, const ExecInputs& in, const float* x,
                       std::int64_t rows, std::int64_t cols, float* y, float* scratch) {
  // Per-segment max, exp + denominator, normalize (the tape's pass
  // structure, same std::exp).
  const std::vector<std::int32_t>& seg = in.g->edge_dst;
  const std::int64_t n = p.num_nodes;
  float* maxv = scratch;
  float* denom = scratch + n * cols;
  std::fill(maxv, maxv + n * cols, -std::numeric_limits<float>::infinity());
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t s = seg[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) {
      maxv[s * cols + j] = std::max(maxv[s * cols + j], x[i * cols + j]);
    }
  }
  std::fill(denom, denom + n * cols, 0.0f);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t s = seg[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(x[i * cols + j] - maxv[s * cols + j]);
      y[i * cols + j] = e;
      denom[s * cols + j] += e;
    }
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t s = seg[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < cols; ++j) y[i * cols + j] /= denom[s * cols + j];
  }
}

/// Operand/result pointers for one step, resolved from the plan buffer.
struct StepOperands {
  const float* a = nullptr;
  const float* b = nullptr;
  float* out = nullptr;
};

/// Execute step `si` of `p` on explicit operands. `scratch` must hold
/// p.scratch_floats floats.
void RunStep(const InferProgram& p, std::size_t si, const InferProgram::Snapshot& snap,
             const ExecInputs& in, const StepOperands& ops, float* scratch,
             const MaskRuns& runs) {
  const Step& s = p.steps[si];
  const std::int64_t rows = p.values[static_cast<std::size_t>(s.out)].rows;
  const std::int64_t cols = p.values[static_cast<std::size_t>(s.out)].cols;
  const graph::EncodedGraph& g = *in.g;
  switch (s.kind) {
    case OpKind::kLinear:
    case OpKind::kLinearAct: {
      LinearGemm(s, snap.lin[si], ops.a, rows, ops.out);
      tensor::fused::BiasActRows(ops.out, rows, cols, cols, LinearBias(s), s.act);
      break;
    }
    case OpKind::kLinearResidualNorm: {
      float* y = ops.out;
      LinearGemm(s, snap.lin[si], ops.a, rows, y);
      const float* bias = LinearBias(s);
      const float* r = ops.b;
      const float* gain = s.gain->value().data().data();
      const float* beta = s.bias->value().data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        float* row = y + i * cols;
        const float* rrow = r + i * cols;
        // Same per-element order as the unfused chain: (+bias), +residual,
        // then the LayerNorm row kernel in place.
        if (bias != nullptr) {
          for (std::int64_t j = 0; j < cols; ++j) row[j] = (row[j] + bias[j]) + rrow[j];
        } else {
          for (std::int64_t j = 0; j < cols; ++j) row[j] += rrow[j];
        }
        tensor::fused::LayerNormRow(row, gain, beta, row, cols);
      }
      break;
    }
    case OpKind::kFusedAttention:
      RunFusedAttention(p, s, in, snap, ops.a, ops.out, scratch, runs);
      break;
    case OpKind::kScale: {
      float* a = ops.out;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) a[i] *= s.scalar;
      break;
    }
    case OpKind::kAdd: {
      float* a = ops.out;
      const float* b = ops.b;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) a[i] += b[i];
      break;
    }
    case OpKind::kRelu: {
      float* a = ops.out;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
      break;
    }
    case OpKind::kLeakyRelu: {
      float* a = ops.out;
      const std::int64_t total = rows * cols;
      for (std::int64_t i = 0; i < total; ++i) {
        a[i] = a[i] > 0.0f ? a[i] : s.scalar * a[i];
      }
      break;
    }
    case OpKind::kLayerNorm: {
      const float* x = ops.a;
      float* y = ops.out;
      const float* gain = s.gain->value().data().data();
      const float* beta = s.bias->value().data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        tensor::fused::LayerNormRow(x + i * cols, gain, beta, y + i * cols, cols);
      }
      break;
    }
    case OpKind::kSpmm: {
      const tensor::Csr& a = *g.adj_norm;
      const float* x = ops.a;
      float* y = ops.out;
      std::fill(y, y + rows * cols, 0.0f);
      for (std::int64_t i = 0; i < a.rows; ++i) {
        float* yrow = y + i * cols;
        for (std::int64_t e = a.row_ptr[static_cast<std::size_t>(i)];
             e < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
          const float av = a.values[static_cast<std::size_t>(e)];
          const float* xrow =
              x + static_cast<std::int64_t>(a.col_idx[static_cast<std::size_t>(e)]) * cols;
          for (std::int64_t j = 0; j < cols; ++j) yrow[j] += av * xrow[j];
        }
      }
      break;
    }
    case OpKind::kPool: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const float* x = ops.a;
      float* y = ops.out;
      std::fill(y, y + cols, 0.0f);
      for (std::int64_t i = 0; i < av.rows; ++i) {
        const float* xrow = x + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) y[j] += xrow[j];
      }
      break;
    }
    case OpKind::kConcat2: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const ValueInfo& bv = p.values[static_cast<std::size_t>(s.b)];
      const float* a = ops.a;
      const float* b = ops.b;
      float* y = ops.out;
      for (std::int64_t i = 0; i < rows; ++i) {
        std::memcpy(y + i * cols, a + i * av.cols,
                    static_cast<std::size_t>(av.cols) * sizeof(float));
        std::memcpy(y + i * cols + av.cols, b + i * bv.cols,
                    static_cast<std::size_t>(bv.cols) * sizeof(float));
      }
      break;
    }
    case OpKind::kMatVec: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const std::int64_t k = av.cols;
      const float* x = ops.a;
      const float* vec = s.gain->value().data().data();
      float* y = ops.out;
      if (k >= 16) {
        // tensor::MatMul's narrow-output tier (n == 1 < 16, k >= 16).
        for (std::int64_t i = 0; i < rows; ++i) {
          y[i] = tensor::simd::Dot(x + i * k, vec, k);
        }
      } else {
        // Mirror the naive tier's sequential ascending-k accumulation.
        for (std::int64_t i = 0; i < rows; ++i) {
          const float* xrow = x + i * k;
          float acc = 0.0f;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            if (xrow[kk] == 0.0f) continue;
            acc += xrow[kk] * vec[kk];
          }
          y[i] = acc;
        }
      }
      break;
    }
    case OpKind::kEdgeScores: {
      const float* ss = ops.a;
      const float* ds = ops.b;
      float* y = ops.out;
      const std::vector<std::int32_t>& src = g.edge_src;
      const std::vector<std::int32_t>& dst = g.edge_dst;
      for (std::int64_t e = 0; e < rows; ++e) {
        y[e] = ss[src[static_cast<std::size_t>(e)]] + ds[dst[static_cast<std::size_t>(e)]];
      }
      break;
    }
    case OpKind::kSegmentSoftmax:
      RunSegmentSoftmax(p, in, ops.a, rows, cols, ops.out, scratch);
      break;
    case OpKind::kGatherRows: {
      const float* x = ops.a;
      float* y = ops.out;
      const std::vector<std::int32_t>& idx = s.edge_sel == 0 ? g.edge_src : g.edge_dst;
      for (std::int64_t e = 0; e < rows; ++e) {
        std::memcpy(y + e * cols, x + idx[static_cast<std::size_t>(e)] * cols,
                    static_cast<std::size_t>(cols) * sizeof(float));
      }
      break;
    }
    case OpKind::kRowScale: {
      float* x = ops.out;
      const float* sc = ops.b;
      for (std::int64_t i = 0; i < rows; ++i) {
        float* row = x + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) row[j] *= sc[i];
      }
      break;
    }
    case OpKind::kSegmentSum: {
      const ValueInfo& av = p.values[static_cast<std::size_t>(s.a)];
      const float* x = ops.a;
      float* y = ops.out;
      std::fill(y, y + rows * cols, 0.0f);
      const std::vector<std::int32_t>& seg = g.edge_dst;
      for (std::int64_t e = 0; e < av.rows; ++e) {
        const float* xrow = x + e * cols;
        float* yrow = y + seg[static_cast<std::size_t>(e)] * cols;
        for (std::int64_t j = 0; j < cols; ++j) yrow[j] += xrow[j];
      }
      break;
    }
    case OpKind::kAddRowVector: {
      float* x = ops.out;
      const float* bias = s.gain->value().data().data();
      for (std::int64_t i = 0; i < rows; ++i) {
        float* row = x + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) row[j] += bias[j];
      }
      break;
    }
  }
}

}  // namespace

std::int64_t ThreadPlanBufferFloats() noexcept {
  return static_cast<std::int64_t>(ThreadExecState().buf.size());
}

void Execute(const InferProgram& p, const ExecInputs& in, float* out) {
  CheckInputs(p, in);
  const graph::EncodedGraph& g = *in.g;

  ExecState& state = ThreadExecState();
  const std::int64_t need = p.PlanFloats();
  if (static_cast<std::int64_t>(state.buf.size()) < need) {
    state.buf.resize(static_cast<std::size_t>(need));
  }
  float* base = state.buf.data();
  float* scratch = base + p.arena_floats;

  // Per-row open-lane windows of the reachability mask, shared by every
  // attention step (the mask is identical across layers and heads). A lane
  // outside [lo, hi) is -inf masked; lanes inside may still be masked and
  // are handled by the windowed softmax.
  if (NeedsMaskRuns(p)) BuildMaskRuns(p, in, state.runs);

  const auto snap = p.CurrentSnapshot();

  const auto ptr_of = [&](ValueId v) -> const float* {
    if (v == kNoValue) return nullptr;
    const ValueInfo& vi = p.values[static_cast<std::size_t>(v)];
    switch (vi.external) {
      case External::kFeatures: return g.features.data().data();
      case External::kDepthPe: return in.pe;
      case External::kNone: break;
    }
    return base + p.offsets[static_cast<std::size_t>(v)];
  };

  for (std::size_t si = 0; si < p.steps.size(); ++si) {
    const Step& s = p.steps[si];
    const StepOperands ops{ptr_of(s.a), ptr_of(s.b),
                           base + p.offsets[static_cast<std::size_t>(s.out)]};
    RunStep(p, si, *snap, in, ops, scratch, state.runs);
  }

  *out = base[p.offsets[static_cast<std::size_t>(p.output)]];
}

}  // namespace predtop::compile
