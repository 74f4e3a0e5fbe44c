#pragma once
// One stage program and one predictor encoding per distinct stage
// computation. A model of repeated layers has O(L^2) stage slices but only
// O(L) distinct stage programs, and the model says which before anything is
// built: BenchmarkModel::StageClass maps a slice to (embedding, LM head, the
// kinds of its layers), and slices of one class build programs that are
// ir::StageProgram::SameComputation. EncodingTable builds and encodes one
// representative per class; every other slice of the class gets a program
// that shares the representative's body (ir::RelabelStage) and the
// representative's EncodedGraph — byte-identical to encoding its own build,
// because EncodeStage reads only the body.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "graph/encode.h"
#include "ir/program.h"

namespace predtop::util {
class ThreadPool;
}

namespace predtop::core {

/// Not thread-safe; owners that share one across threads lock around it.
class EncodingTable {
 public:
  explicit EncodingTable(BenchmarkModel model);

  [[nodiscard]] const BenchmarkModel& Model() const noexcept { return model_; }

  /// Build and encode one representative of every class of `slices` not yet
  /// encoded, each build and its encoding one task of a single ParallelFor on
  /// `pool` (serial without one). If a build or an encoding throws, no
  /// program or encoding is committed.
  void Fill(std::span<const ir::StageSlice> slices, util::ThreadPool* pool = nullptr);

  /// The slice's program: its class representative's body under the slice's
  /// own name, layer range and boundary flags. Builds the representative on
  /// a class miss. Valid for the table's lifetime.
  [[nodiscard]] const ir::StageProgram& Program(ir::StageSlice slice);
  /// The slice's class encoding; builds and encodes on a miss. Valid for the
  /// table's lifetime.
  [[nodiscard]] const graph::EncodedGraph& Encoded(ir::StageSlice slice);

  /// Classes encoded so far.
  [[nodiscard]] std::size_t size() const noexcept { return encoded_classes_; }

 private:
  struct Class {
    ir::StageSlice representative_slice;  // the first slice seen of the class
    std::optional<ir::StageProgram> representative;
    std::unique_ptr<const graph::EncodedGraph> encoded;
  };
  struct Slice {
    std::size_t cls = 0;
    std::optional<ir::StageProgram> program;
  };

  /// The slice's memo entry, resolving its class (new classes start empty).
  [[nodiscard]] Slice& SliceEntry(ir::StageSlice slice);
  [[nodiscard]] const ir::StageProgram& Representative(std::size_t cls);

  BenchmarkModel model_;
  std::map<std::vector<std::int32_t>, std::size_t> class_index_;
  std::vector<Class> classes_;
  std::map<std::pair<std::int32_t, std::int32_t>, Slice> slices_;
  std::size_t encoded_classes_ = 0;
};

}  // namespace predtop::core
