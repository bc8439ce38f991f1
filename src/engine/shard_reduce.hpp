// The campaign's shard reduction, factored out of the live engine so
// every path that ends in a full shard-state matrix — simulated
// campaigns, corpus replay, multi-process partial-state merges — reduces
// and finalizes through the SAME code, hence bit-identically.
#pragma once

#include <cstddef>
#include <span>

#include "dpa/distinguisher.hpp"

namespace sable {

class WorkerPool;

/// Reduces a fully covered shard-state matrix (states[d][s] non-null for
/// every d, s) and finalizes each distinguisher with its root. Ordered
/// distinguishers (MTD) reduce by the strict serial left fold in
/// canonical shard order; unordered ones through the fixed-shape binary
/// merge tree with each round's disjoint merges spread over `workers`
/// by parallel_for (up to `threads` parties, 0 = hardware concurrency) —
/// the pairing, and therefore the result, is bit-identical to the serial
/// tree for any thread count. Throws InvalidArgument when any shard state
/// is missing.
void reduce_and_finalize_distinguishers(
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    WorkerPool& workers, std::size_t threads);

}  // namespace sable
