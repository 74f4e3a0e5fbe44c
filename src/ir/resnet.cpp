#include "ir/resnet.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "ir/builder_common.h"

namespace predtop::ir {

namespace {

struct BlockShape {
  std::int64_t channels = 0;
  std::int64_t spatial = 0;   // H == W
  bool downsamples = false;   // first block of a wider group
};

/// Width/spatial schedule: three equal groups, channels x1/x2/x4 of base,
/// spatial halved at each group boundary.
BlockShape ShapeOfBlock(const WideResNetConfig& config, std::int64_t block) {
  const std::int64_t group_size = std::max<std::int64_t>(1, config.num_blocks / 3);
  const std::int64_t group = std::min<std::int64_t>(2, block / group_size);
  BlockShape shape;
  shape.channels = config.base_channels << group;
  shape.spatial = config.image_size >> group;
  shape.downsamples = group > 0 && block == group * group_size;
  return shape;
}

/// conv2d + decomposed norm + ReLU. `stride2` halves the spatial size.
ValueId ConvNormRelu(GraphBuilder& gb, ValueId x, std::int64_t b, std::int64_t cin,
                     std::int64_t cout, std::int64_t spatial_out, std::int64_t kernel,
                     bool relu) {
  auto& p = gb.program();
  const ValueId weight = p.AddLiteral({gb.dtype(), {cout, cin, kernel, kernel}});
  const ValueId conv =
      p.AddEquation(OpType::kConv2d, {x, weight},
                    {gb.dtype(), {b, cout, spatial_out, spatial_out}}, kernel * kernel * cin);
  // BatchNorm at inference-style decomposition: scale + shift per channel.
  const ValueId gamma = p.AddLiteral({gb.dtype(), {cout}});
  const ValueId scaled = p.AddEquation(OpType::kMul, {conv, gamma},
                                       {gb.dtype(), {b, cout, spatial_out, spatial_out}});
  const ValueId beta = p.AddLiteral({gb.dtype(), {cout}});
  ValueId y = p.AddEquation(OpType::kAdd, {scaled, beta},
                            {gb.dtype(), {b, cout, spatial_out, spatial_out}});
  if (relu) {
    const ValueId zero = p.AddLiteral({gb.dtype(), {}});
    y = p.AddEquation(OpType::kMax, {y, zero},
                      {gb.dtype(), {b, cout, spatial_out, spatial_out}});
  }
  return y;
}

/// The shape a block reads: its predecessor's, or its own for block 0.
BlockShape InputShapeOfBlock(const WideResNetConfig& config, std::int64_t block) {
  const BlockShape shape = ShapeOfBlock(config, block);
  return block > 0 ? ShapeOfBlock(config, block - 1)
                   : BlockShape{shape.channels, shape.spatial, false};
}

ValueId ResidualBlock(GraphBuilder& gb, ValueId x, const WideResNetConfig& config,
                      std::int64_t block) {
  auto& p = gb.program();
  const std::int64_t b = config.microbatch;
  const BlockShape shape = ShapeOfBlock(config, block);
  const BlockShape prev = InputShapeOfBlock(config, block);
  const std::int64_t cin = block > 0 ? prev.channels : shape.channels;

  const ValueId h1 = ConvNormRelu(gb, x, b, cin, shape.channels, shape.spatial, 3, true);
  const ValueId h2 = ConvNormRelu(gb, h1, b, shape.channels, shape.channels, shape.spatial, 3,
                                  /*relu=*/false);
  // Skip path: identity, or 1x1 projection when shape changes.
  ValueId skip = x;
  if (shape.downsamples || cin != shape.channels) {
    skip = ConvNormRelu(gb, x, b, cin, shape.channels, shape.spatial, 1, /*relu=*/false);
  }
  const ValueId sum = p.AddEquation(OpType::kAdd, {h2, skip},
                                    {gb.dtype(), {b, shape.channels, shape.spatial, shape.spatial}});
  const ValueId zero = p.AddLiteral({gb.dtype(), {}});
  return p.AddEquation(OpType::kMax, {sum, zero},
                       {gb.dtype(), {b, shape.channels, shape.spatial, shape.spatial}});
}

}  // namespace

std::vector<std::int32_t> LayerKinds(const WideResNetConfig& config) {
  std::vector<std::array<std::int64_t, 5>> seen;
  std::vector<std::int32_t> kinds;
  for (std::int64_t block = 0; block < config.num_blocks; ++block) {
    const BlockShape shape = ShapeOfBlock(config, block);
    const BlockShape in = InputShapeOfBlock(config, block);
    const std::array<std::int64_t, 5> key = {shape.channels, shape.spatial, shape.downsamples,
                                             in.channels, in.spatial};
    const auto it = std::find(seen.begin(), seen.end(), key);
    kinds.push_back(static_cast<std::int32_t>(it - seen.begin()));
    if (it == seen.end()) seen.push_back(key);
  }
  return kinds;
}

StageProgram BuildWideResNetStage(const WideResNetConfig& config, StageSlice slice) {
  if (slice.first_layer < 0 || slice.last_layer > config.num_blocks ||
      slice.first_layer >= slice.last_layer) {
    throw std::invalid_argument("BuildWideResNetStage: invalid block range");
  }
  StageProgram program;
  program.name = StageName("wrn", slice, static_cast<std::int32_t>(config.num_blocks));
  program.first_layer = slice.first_layer;
  program.last_layer = slice.last_layer;
  program.has_embedding = slice.first_layer == 0;
  program.has_lm_head = slice.last_layer == config.num_blocks;
  program.microbatch = config.microbatch;

  GraphBuilder gb(program);
  const std::int64_t b = config.microbatch;
  ValueId x;
  if (program.has_embedding) {
    // Stem: image input + 3x3 conv to base channels.
    const ValueId image = program.AddInput(
        {DType::kF16, {b, config.in_channels, config.image_size, config.image_size}});
    x = ConvNormRelu(gb, image, b, config.in_channels, config.base_channels,
                     config.image_size, 3, true);
  } else {
    const BlockShape entry = ShapeOfBlock(config, slice.first_layer - 1);
    x = program.AddInput({DType::kF16, {b, entry.channels, entry.spatial, entry.spatial}});
  }
  for (std::int32_t block = slice.first_layer; block < slice.last_layer; ++block) {
    x = ResidualBlock(gb, x, config, block);
  }
  if (program.has_lm_head) {
    const BlockShape last = ShapeOfBlock(config, config.num_blocks - 1);
    // Global average pool (reduce) + classifier + loss.
    const ValueId pooled = program.AddEquation(OpType::kReduceSum, {x},
                                               {DType::kF16, {b, last.channels}});
    const ValueId fc = program.AddLiteral({DType::kF16, {last.channels, config.num_classes}});
    const ValueId logits = program.AddEquation(OpType::kDot, {pooled, fc},
                                               {DType::kF16, {b, config.num_classes}},
                                               last.channels);
    const ValueId labels = program.AddInput({DType::kI32, {b}});
    const ValueId logits32 = gb.Convert(logits, DType::kF32);
    x = program.AddEquation(OpType::kSoftmaxXent, {logits32, labels}, {DType::kF32, {b}});
  }
  program.MarkOutput(x);
  return program;
}

}  // namespace predtop::ir
