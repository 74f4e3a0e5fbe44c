#pragma once
// One predictor encoding per distinct stage computation. A model of
// identical layers has O(L^2) stage slices but only O(L) distinct stage
// programs: a GPT-3 slice's program depends on its span and on whether it
// holds the embedding or the LM head, nothing else. EncodingTable keys
// EncodeStage results by ir::StageProgram's computation identity, so every
// slice whose program computes the same thing shares one EncodedGraph —
// byte-identical to encoding it on its own, because EncodeStage reads only
// the fields the identity compares.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/encode.h"
#include "ir/program.h"

namespace predtop::util {
class ThreadPool;
}

namespace predtop::core {

/// A stage program with its ir::StageProgram::ComputationHash.
struct HashedProgram {
  std::shared_ptr<const ir::StageProgram> program;
  std::uint64_t hash = 0;

  [[nodiscard]] static HashedProgram Of(ir::StageProgram program);
};

/// Not thread-safe; owners that share one across threads lock around it.
class EncodingTable {
 public:
  using Encoding = std::shared_ptr<const graph::EncodedGraph>;

  /// The shared encoding of each program, in order. Programs are grouped on
  /// the calling thread by hash, each member confirmed with SameComputation
  /// (a hash collision never merges two different programs); the first
  /// program of each group not yet in the table is encoded, on `pool` when
  /// given. If an encoding throws, the table is left as it was.
  [[nodiscard]] std::vector<Encoding> Encode(std::span<const HashedProgram> programs,
                                             util::ThreadPool* pool = nullptr);
  [[nodiscard]] Encoding Encode(const HashedProgram& program);

  /// Distinct computations encoded so far.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const ir::StageProgram> program;
    Encoding encoded;
  };
  std::unordered_multimap<std::uint64_t, Entry> entries_;
};

}  // namespace predtop::core
