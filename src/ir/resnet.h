#pragma once
// Extension benchmark beyond the paper's two models: a Wide-ResNet-style
// CNN. Its stage DAGs differ structurally from transformer stages (conv
// chains, skip connections with 1x1 projections, stage-wise downsampling),
// exercising the conv2d operator and giving the predictors out-of-family
// graphs to generalize over.

#include "ir/models.h"

namespace predtop::ir {

struct WideResNetConfig {
  std::int64_t image_size = 32;
  std::int64_t in_channels = 3;
  std::int64_t base_channels = 64;
  /// Residual blocks — the unit of pipeline-stage slicing, split into three
  /// width groups (channels x1 / x2 / x4 with spatial downsampling).
  std::int64_t num_blocks = 12;
  std::int64_t num_classes = 100;
  std::int64_t microbatch = 32;
};

/// Stage over residual blocks [slice.first_layer, slice.last_layer); the
/// stem conv attaches to block 0 and the pool + classifier head to the last
/// block (mirroring the transformer builders' convention).
[[nodiscard]] StageProgram BuildWideResNetStage(const WideResNetConfig& config,
                                                StageSlice slice);

/// Computation kind of each residual block (see LayerKinds in models.h): a
/// block's equations depend on its own width and resolution and on its
/// predecessor's, which is also the shape of a stage input entering at it.
/// Blocks with equal (shape, predecessor shape) share a kind.
[[nodiscard]] std::vector<std::int32_t> LayerKinds(const WideResNetConfig& config);

}  // namespace predtop::ir
