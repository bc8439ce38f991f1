// Replaying recorded corpora into the distinguisher pipeline: any attack
// the live engine can drive runs from disk instead, with no simulation
// and bit-identical results — the corpus preserves the canonical shard
// decomposition, so accumulation, reduction and finalization are the
// exact operations of the live run on the exact same blocks. Compressed
// (v2) corpora decode through per-thread scratch buffers on the way in;
// the decoded blocks are byte-identical to the recorded traces, so the
// bit-identity guarantee is unchanged.
#pragma once

#include <cstddef>
#include <span>

#include "dpa/distinguisher.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"

namespace sable {

struct RoundSpec;  // crypto/round_target.hpp
class WorkerPool;
class SharedCorpus;  // io/corpus_cache.hpp

/// Drives `distinguishers` over the recorded corpus, honoring the same
/// checkpoint/resume/fan-out controls as a live run. `round` must hash
/// to the corpus's spec (ManifestMismatchError otherwise) and every
/// distinguisher's data kind must match the corpus kind — a scalar
/// corpus cannot feed a time-resolved attack (InvalidArgument). Shards
/// are accumulated in parallel over `num_threads` workers (0 = hardware
/// concurrency) on `pool` (an internal pool when null). Returns true
/// when the campaign completed (results finalized), false for a partial
/// persisted run.
bool replay_distinguishers(const CorpusReader& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist = {},
                           std::size_t num_threads = 0,
                           WorkerPool* pool = nullptr);

/// Same contract, but shards come through the SharedCorpus decoded-chunk
/// cache: concurrent evaluations (each calling this from its own thread)
/// share one mapping and decode every chunk at most once between them.
/// The round-spec validation is memoized on the SharedCorpus, so many
/// small evaluations pay it once.
bool replay_distinguishers(SharedCorpus& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist = {},
                           std::size_t num_threads = 0,
                           WorkerPool* pool = nullptr);

/// Runs several independent attack sets over the corpus in ONE pass (the
/// CLI's --all-subkeys corpus mode): the sets are flattened into one
/// distinguisher list and replayed shard-major through the shared cache,
/// so each shard is fetched and decoded once, and every set's
/// accumulators consume it while it is in cache — sub-plaintexts and
/// the scalar histogram computed once per attacked instance. Every set
/// is validated, accumulated over the full shard range and finalized,
/// bit-identically to replaying it alone; no checkpoint/resume (the pass
/// is one shot by construction).
void replay_shared(SharedCorpus& corpus, const RoundSpec& round,
                   std::span<const std::span<Distinguisher* const>> sets,
                   std::size_t num_threads = 0, WorkerPool* pool = nullptr);

}  // namespace sable
