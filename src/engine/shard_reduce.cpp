#include "engine/shard_reduce.hpp"

#include <algorithm>
#include <vector>

#include "engine/worker_pool.hpp"
#include "util/error.hpp"

namespace sable {

void reduce_and_finalize_distinguishers(
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    WorkerPool& workers, std::size_t threads) {
  SABLE_REQUIRE(states.size() == distinguishers.size() && !states.empty(),
                "shard-state matrix must match the distinguisher list");
  const std::size_t num_shards = states[0].size();
  SABLE_REQUIRE(num_shards > 0, "reduction needs at least one shard");
  for (std::size_t d = 0; d < states.size(); ++d) {
    SABLE_REQUIRE(states[d].size() == num_shards,
                  "shard-state matrix must be rectangular");
    const std::size_t missing = static_cast<std::size_t>(
        std::count(states[d].begin(), states[d].end(), nullptr));
    SABLE_REQUIRE(missing == 0,
                  "cannot reduce a partially covered campaign (" +
                      std::to_string(missing) + " shard states missing); "
                      "merge every partial state first");
  }

  // Ordered distinguishers (MTD prefix semantics) keep the strict serial
  // left fold in canonical shard order. Unordered ones reduce through the
  // fixed-shape binary tree — the exact pairing merge_shard_tree defines
  // — but with each round's merges spread over the parked workers: within
  // a round every (d, i) <- (d, i + stride) merge touches disjoint
  // accumulators, so the rounds parallelize freely while the pairing
  // (hence the result, bit for bit) stays that of the serial tree.
  std::vector<std::size_t> unordered;
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    if (distinguishers[d]->ordered()) {
      for (std::size_t s = 1; s < num_shards; ++s) {
        states[d][0]->merge(*states[d][s]);
      }
    } else if (num_shards > 1) {
      unordered.push_back(d);
    }
  }
  std::vector<std::size_t> lefts;  // the round's merge targets i
  for (std::size_t stride = 1; stride < num_shards; stride *= 2) {
    lefts.clear();
    for (std::size_t i = 0; i + stride < num_shards; i += 2 * stride) {
      lefts.push_back(i);
    }
    parallel_for(
        workers, threads, unordered.size() * lefts.size(), [] { return 0; },
        [&](int, std::size_t k) {
          const std::size_t d = unordered[k / lefts.size()];
          const std::size_t i = lefts[k % lefts.size()];
          states[d][i]->merge(*states[d][i + stride]);
        });
  }
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    distinguishers[d]->finalize(*states[d][0]);
  }
}

}  // namespace sable
