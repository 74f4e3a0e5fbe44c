#include "core/encoding_table.h"

#include "util/thread_pool.h"

namespace predtop::core {

EncodingTable::EncodingTable(BenchmarkModel model) : model_(std::move(model)) {}

EncodingTable::Slice& EncodingTable::SliceEntry(ir::StageSlice slice) {
  const auto [it, fresh] = slices_.try_emplace({slice.first_layer, slice.last_layer});
  if (fresh) {
    const auto [cls, new_class] =
        class_index_.try_emplace(model_.StageClass(slice), classes_.size());
    if (new_class) classes_.push_back(Class{slice, std::nullopt, nullptr});
    it->second.cls = cls->second;
  }
  return it->second;
}

const ir::StageProgram& EncodingTable::Representative(std::size_t cls) {
  Class& c = classes_[cls];
  if (!c.representative) c.representative = model_.build_stage(c.representative_slice);
  return *c.representative;
}

void EncodingTable::Fill(std::span<const ir::StageSlice> slices, util::ThreadPool* pool) {
  std::vector<std::size_t> todo;
  std::vector<bool> queued(classes_.size() + slices.size(), false);
  for (const ir::StageSlice slice : slices) {
    const std::size_t cls = SliceEntry(slice).cls;
    if (classes_[cls].encoded || queued[cls]) continue;
    queued[cls] = true;
    todo.push_back(cls);
  }

  std::vector<std::optional<ir::StageProgram>> built(todo.size());
  std::vector<std::unique_ptr<const graph::EncodedGraph>> encoded(todo.size());
  const auto work = [&](std::size_t i) {
    const Class& c = classes_[todo[i]];
    const ir::StageProgram& program =
        c.representative ? *c.representative
                         : built[i].emplace(model_.build_stage(c.representative_slice));
    encoded[i] = std::make_unique<const graph::EncodedGraph>(EncodeStage(program));
  };
  if (pool != nullptr) {
    pool->ParallelFor(todo.size(), work);
  } else {
    for (std::size_t i = 0; i < todo.size(); ++i) work(i);
  }

  for (std::size_t i = 0; i < todo.size(); ++i) {
    Class& c = classes_[todo[i]];
    if (built[i]) c.representative = std::move(built[i]);
    c.encoded = std::move(encoded[i]);
  }
  encoded_classes_ += todo.size();
}

const ir::StageProgram& EncodingTable::Program(ir::StageSlice slice) {
  Slice& entry = SliceEntry(slice);
  if (!entry.program) {
    const ir::StageProgram& representative = Representative(entry.cls);
    entry.program = classes_[entry.cls].representative_slice == slice
                        ? representative
                        : ir::RelabelStage(representative, slice, model_.num_layers);
  }
  return *entry.program;
}

const graph::EncodedGraph& EncodingTable::Encoded(ir::StageSlice slice) {
  const std::size_t cls = SliceEntry(slice).cls;
  if (!classes_[cls].encoded) {
    classes_[cls].encoded =
        std::make_unique<const graph::EncodedGraph>(EncodeStage(Representative(cls)));
    ++encoded_classes_;
  }
  return *classes_[cls].encoded;
}

}  // namespace predtop::core
