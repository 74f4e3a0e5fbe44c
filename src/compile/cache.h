#pragma once
// Global LRU cache of compiled inference programs, keyed by
// (owner instance, shape class). Programs hold raw pointers into their
// owner's modules, so the owner's destructor MUST evict its entries
// (core::StagePredictor does) — otherwise a hot-swapped model would leak its
// programs *and* leave dangling weight pointers behind.

#include <cstdint>
#include <memory>

#include "compile/program.h"

namespace predtop::compile {

/// Monotonic owner ids for program cache keys (one per StagePredictor).
[[nodiscard]] std::uint64_t NextOwnerId() noexcept;

class ProgramCache {
 public:
  [[nodiscard]] static ProgramCache& Global();

  /// Cached program for the key, bumping recency; nullptr = not cached.
  [[nodiscard]] std::shared_ptr<InferProgram> Lookup(std::uint64_t owner,
                                                     std::int64_t num_nodes,
                                                     std::int64_t num_edges);

  /// Insert (evicting least-recently-used entries beyond capacity).
  void Insert(std::uint64_t owner, std::int64_t num_nodes, std::int64_t num_edges,
              std::shared_ptr<InferProgram> program);

  /// Drop every entry of one owner (called from ~StagePredictor).
  void EvictOwner(std::uint64_t owner);

  [[nodiscard]] std::size_t Size() const;
  void Clear();
  /// Test hook; the process default comes from PREDTOP_COMPILE_CACHE.
  void SetCapacity(std::size_t capacity);

  /// Lifetime Lookup outcomes. Monotonic — Clear/EvictOwner don't reset
  /// them. Surfaced through serve::ServiceStats and the cluster StatsBody.
  [[nodiscard]] std::uint64_t Hits() const noexcept;
  [[nodiscard]] std::uint64_t Misses() const noexcept;

 private:
  ProgramCache();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace predtop::compile
