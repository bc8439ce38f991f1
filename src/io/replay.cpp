#include "io/replay.hpp"

#include <utility>
#include <vector>

#include "crypto/round_target.hpp"
#include "engine/shard_feed.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus_cache.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

TraceDataKind corpus_data_kind(const CorpusManifest& cm) {
  return cm.kind == kCorpusKindScalar ? TraceDataKind::kScalar
                                      : TraceDataKind::kSampled;
}

// The per-evaluation validation replay performs ONCE up front (the
// corpus structure itself was already validated when the reader was
// constructed): spec hash when `check_spec` (SharedCorpus memoizes it
// across evaluations), stride, and every distinguisher's contract.
// Returns the set's shard feed — the live engine's per-shard code.
ShardFeed validate_for_replay(const CorpusManifest& cm,
                              const std::string& path, const RoundSpec& round,
                              std::span<Distinguisher* const> distinguishers,
                              bool check_spec) {
  const CampaignManifest& manifest = cm.campaign;
  SABLE_REQUIRE(!distinguishers.empty(),
                "replay needs at least one distinguisher");
  SABLE_REQUIRE(manifest.num_traces >= 2,
                "attack campaigns require at least two traces");
  if (check_spec && round_spec_hash(round) != manifest.spec_hash) {
    throw ManifestMismatchError(
        path,
        "corpus was recorded for a different round spec than the one being "
        "attacked");
  }
  SABLE_REQUIRE(cm.pt_stride == round.state_bytes(),
                "corpus plaintext stride must equal the round's packed "
                "state width");
  for (Distinguisher* dist : distinguishers) {
    SABLE_REQUIRE(dist != nullptr, "distinguisher must not be null");
    dist->validate(round);
    SABLE_REQUIRE(dist->data_kind() == corpus_data_kind(cm),
                  "distinguisher's trace data kind does not match the "
                  "corpus (scalar vs cycle-sampled)");
  }
  return ShardFeed(round, distinguishers);
}

// Shard s of a corpus as the feed consumes it: the samples go in the
// slot of the corpus's data kind.
ShardTraces corpus_traces(const CorpusManifest& cm, std::size_t s,
                          const CorpusShardView& view) {
  ShardTraces traces;
  traces.shard = s;
  traces.start = s * static_cast<std::size_t>(cm.campaign.shard_size);
  traces.count = view.count;
  traces.pts = view.pts;
  if (corpus_data_kind(cm) == TraceDataKind::kScalar) {
    traces.scalar = view.samples;
  } else {
    traces.rows = view.samples;
    traces.levels = static_cast<std::size_t>(cm.sample_width);
  }
  return traces;
}

ShardStates empty_states(std::size_t distinguishers, std::size_t shards) {
  ShardStates states(distinguishers);
  for (auto& row : states) row.resize(shards);
  return states;
}

// A fetched shard: the view plus whatever keeps it alive (a SharedCorpus
// lease, or nothing when the view aliases a scratch or the mapping).
struct FetchedShard {
  SharedCorpus::Lease lease;
  CorpusShardView view;
};

// A replay worker's reusable buffers.
struct ReplayCtx {
  ShardFeed::Scratch feed;
  CorpusDecodeScratch scratch;
};

// The common replay driver. `fetch(s, scratch)` produces shard s's
// traces; everything else — wave scheduling, checkpointing, threading,
// reduction — is storage-agnostic.
template <typename Fetch>
bool replay_impl(const CorpusManifest& cm,
                 std::span<Distinguisher* const> distinguishers,
                 const ShardFeed& feed, const CampaignPersistence& persist,
                 std::size_t num_threads, WorkerPool* pool, Fetch&& fetch) {
  const CampaignManifest& manifest = cm.campaign;
  ShardStates states =
      empty_states(distinguishers.size(),
                   static_cast<std::size_t>(manifest.num_shards));
  WorkerPool local_pool;
  WorkerPool& workers = pool ? *pool : local_pool;

  const auto accumulate = [&](const std::vector<std::size_t>& work) {
    parallel_for(
        workers, num_threads, work.size(), [] { return ReplayCtx{}; },
        [&](ReplayCtx& ctx, std::size_t k) {
          const std::size_t s = work[k];
          const FetchedShard fetched = fetch(s, ctx.scratch);
          feed.feed(corpus_traces(cm, s, fetched.view), states, ctx.feed);
        });
  };

  if (!run_persisted_waves(manifest, distinguishers, states, persist,
                           accumulate)) {
    return false;
  }
  reduce_and_finalize_distinguishers(distinguishers, states, workers,
                                     num_threads);
  return true;
}

}  // namespace

bool replay_distinguishers(const CorpusReader& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist,
                           std::size_t num_threads, WorkerPool* pool) {
  const ShardFeed feed = validate_for_replay(
      corpus.manifest(), corpus.path(), round, distinguishers,
      /*check_spec=*/true);
  return replay_impl(corpus.manifest(), distinguishers, feed, persist,
                     num_threads, pool,
                     [&](std::size_t s, CorpusDecodeScratch& scratch) {
                       return FetchedShard{{}, corpus.read_shard(s, scratch)};
                     });
}

bool replay_distinguishers(SharedCorpus& corpus, const RoundSpec& round,
                           std::span<Distinguisher* const> distinguishers,
                           const CampaignPersistence& persist,
                           std::size_t num_threads, WorkerPool* pool) {
  const std::uint64_t hash = round_spec_hash(round);
  const bool check_spec = !corpus.spec_validated(hash);
  const ShardFeed feed =
      validate_for_replay(corpus.manifest(), corpus.reader().path(), round,
                          distinguishers, check_spec);
  if (check_spec) corpus.note_spec_validated(hash);
  return replay_impl(corpus.manifest(), distinguishers, feed, persist,
                     num_threads, pool,
                     [&](std::size_t s, CorpusDecodeScratch&) {
                       SharedCorpus::Lease lease = corpus.acquire(s);
                       const CorpusShardView view = lease.view();
                       return FetchedShard{std::move(lease), view};
                     });
}

void replay_shared(SharedCorpus& corpus, const RoundSpec& round,
                   std::span<const std::span<Distinguisher* const>> sets,
                   std::size_t num_threads, WorkerPool* pool) {
  SABLE_REQUIRE(!sets.empty(), "replay_shared needs at least one attack set");
  std::vector<Distinguisher*> all;
  for (const auto& set : sets) {
    SABLE_REQUIRE(!set.empty(), "replay needs at least one distinguisher");
    all.insert(all.end(), set.begin(), set.end());
  }
  replay_distinguishers(corpus, round, all, {}, num_threads, pool);
}

}  // namespace sable
