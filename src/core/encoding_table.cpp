#include "core/encoding_table.h"

#include "core/dataset.h"
#include "util/thread_pool.h"

namespace predtop::core {

HashedProgram HashedProgram::Of(ir::StageProgram program) {
  const std::uint64_t hash = program.ComputationHash();
  return {std::make_shared<const ir::StageProgram>(std::move(program)), hash};
}

std::vector<EncodingTable::Encoding> EncodingTable::Encode(
    std::span<const HashedProgram> programs, util::ThreadPool* pool) {
  std::vector<Encoding> out(programs.size());
  // The inputs that represent a computation new to the table, and which
  // representative each input resolves to (-1: already in the table).
  std::vector<std::size_t> fresh;
  std::unordered_multimap<std::uint64_t, std::size_t> fresh_by_hash;
  std::vector<std::ptrdiff_t> fresh_of(programs.size(), -1);
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const HashedProgram& p = programs[i];
    for (auto [it, end] = entries_.equal_range(p.hash); it != end && !out[i]; ++it) {
      if (p.program->SameComputation(*it->second.program)) out[i] = it->second.encoded;
    }
    if (out[i]) continue;
    for (auto [it, end] = fresh_by_hash.equal_range(p.hash); it != end; ++it) {
      if (p.program->SameComputation(*programs[fresh[it->second]].program)) {
        fresh_of[i] = static_cast<std::ptrdiff_t>(it->second);
        break;
      }
    }
    if (fresh_of[i] >= 0) continue;
    fresh_of[i] = static_cast<std::ptrdiff_t>(fresh.size());
    fresh_by_hash.emplace(p.hash, fresh.size());
    fresh.push_back(i);
  }

  std::vector<Encoding> encoded(fresh.size());
  const auto encode = [&](std::size_t f) {
    encoded[f] = std::make_shared<const graph::EncodedGraph>(
        EncodeStage(*programs[fresh[f]].program));
  };
  if (pool != nullptr) {
    pool->ParallelFor(fresh.size(), encode);
  } else {
    for (std::size_t f = 0; f < fresh.size(); ++f) encode(f);
  }

  for (std::size_t f = 0; f < fresh.size(); ++f) {
    const HashedProgram& p = programs[fresh[f]];
    entries_.emplace(p.hash, Entry{p.program, encoded[f]});
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (fresh_of[i] >= 0) out[i] = encoded[static_cast<std::size_t>(fresh_of[i])];
  }
  return out;
}

EncodingTable::Encoding EncodingTable::Encode(const HashedProgram& program) {
  return Encode(std::span<const HashedProgram>(&program, 1)).front();
}

}  // namespace predtop::core
