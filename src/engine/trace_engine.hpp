// TraceEngine — thread-sharded trace generation with streaming
// consumption, over round targets.
//
// The engine turns a RoundSpec — N S-box instances synthesized side by
// side in one logic style — into power-trace campaigns at MTD scale.
// Within a shard, every trace is gathered from the instances' exact
// energy tables (crypto/round_target.hpp) and summed; across shards, a
// worker pool spreads the campaign over cores. Traces are handed
// block-by-block in canonical order to streaming consumers (stream /
// stream_sampled) — and attacks skip the hand-off entirely through the
// distinguisher pipeline (run_distinguishers): every attack is a
// Distinguisher whose per-shard accumulators ride the worker pool and
// reduce through a fixed-shape binary merge tree (or an ordered fold for
// MTD), so an attack over 10^7 traces needs O(guesses) memory per shard
// and one pass. A single attack is attack(options, d) for its
// Distinguisher d (CPA, DoM, MTD, multi-sample or second-order CPA), and
// any number of distinguishers — e.g. a CPA per subkey of a 16-S-box
// round — share ONE simulated campaign through run_distinguishers
// instead of re-simulating per attack.
//
// Attacks select one instance via AttackSelector{sbox_index, model, bit}:
// the accumulators consume that instance's sub-plaintexts and guess its
// subkey while the other N-1 instances contribute algorithmic noise — the
// paper's real threat model for a cipher's nonlinear layer.
//
// Determinism: a campaign is defined as a sequence of fixed-size shards
// (shard_size traces, rounded to whole 64-lane words). Shard s draws its
// plaintexts and noise from counter-derived sub-streams
// campaign_shard_seed(seed, s, ·) and starts from fresh table-lane state,
// so its traces depend only on (options, s) — never on which worker ran
// it or how many there were. The merge tree's shape depends only on the
// shard count. Results are bit-identical for any num_threads, including
// 1. shard_size is therefore part of the stream definition (it sets the
// shard boundaries), not a pure performance knob — which is why the
// shard_size = 0 autotune derives the size from num_traces and fixed
// constants alone (see campaign_shard_size), never from the machine.
//
// Dispatch tiers: the table builds and the distinguishers' block-stats
// kernels dispatch on the running CPU (util/cpu_dispatch.hpp), and every
// tier gives bit-identical campaigns.
//
// Workers are cheap: each campaign hands every worker thread a clone()
// of the engine's target (shared circuits and tables, private lane
// history). What persists across campaigns is the engine's target, with
// its tables built once, and a parked thread pool
// (engine/worker_pool.hpp), so sweeps of many small campaigns pay
// synthesis, table builds and thread creation once — not once per
// campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/target.hpp"
#include "dpa/distinguisher.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"
#include "util/error.hpp"

namespace sable {

class CorpusReader;  // io/corpus.hpp

struct CampaignOptions {
  std::size_t num_traces = 0;
  /// Packed round key: one sub-key per S-box instance, LSB-first in
  /// instance order (nibble-packed for 4-bit S-boxes; see
  /// RoundSpec::pack_subkeys). Must be round().state_bytes() long — the
  /// default single zero byte fits any single-S-box target.
  std::vector<std::uint8_t> key = {0};
  /// Gaussian measurement noise RMS [J] added per trace (per sample for
  /// time-resolved campaigns). Must be finite (every entry point throws
  /// InvalidArgument otherwise); a negative value adds sigma·z, noise of
  /// RMS |sigma|.
  double noise_sigma = 0.0;
  /// Seed of the campaign's plaintext/noise streams; one seed reproduces
  /// the exact trace sequence bit for bit.
  std::uint64_t seed = 0xA77ACC;
  /// Traces per campaign shard (rounded down to whole 64-lane words).
  /// Shards are the unit of parallel scheduling AND of the stream
  /// definition: changing shard_size changes the generated traces.
  /// 0 (the default) autotunes from num_traces alone — a pure function
  /// of the options, so autotuned campaigns are still reproducible
  /// everywhere; see campaign_shard_size for the exact rule.
  std::size_t shard_size = 0;
  /// Worker threads the campaign shards are scheduled over.
  /// 0 = hardware concurrency. Any value yields bit-identical results.
  std::size_t num_threads = 0;
};

/// Shard granularity of a campaign: shard_size rounded down to whole
/// 64-lane words, CLAMPED to at least one word — a shard_size in [1, 63]
/// yields 64-trace shards rather than rounding to zero.
///
/// shard_size = 0 autotunes: clamp(num_traces / 256 rounded down to a
/// whole 64-lane word, 1024, 65536). The constants are fixed — NOT
/// derived from the thread count or the machine — so the
/// autotuned stream is exactly as reproducible as an explicit size:
/// campaigns up to 1024 traces stay single-shard, larger ones aim for
/// ~256 shards (comfortable dynamic-scheduling slack for any realistic
/// core count) and cap the shard at 65536 traces so per-shard buffers
/// stay cache-sized.
std::size_t campaign_shard_size(const CampaignOptions& options);

/// Seed of shard `shard`'s sub-stream `stream` (0 = plaintexts, 1 =
/// noise): a splitmix64-style mix of the campaign seed and a counter, so
/// shards are decorrelated yet reproducible from (seed, shard) alone.
std::uint64_t campaign_shard_seed(std::uint64_t campaign_seed,
                                  std::size_t shard, std::size_t stream);

/// Worker threads a campaign resolves to (0 = hardware concurrency).
std::size_t campaign_thread_count(const CampaignOptions& options);

/// 64, the lane width every campaign's energy tables are built at.
/// Campaigns have no lane-width setting; this stays only for the
/// campaign benchmark's engine.lane_width counter, which a later
/// benchmark change removes together with this function.
std::size_t campaign_lane_width(const CampaignOptions& options,
                                LogicStyle style);

/// Deterministic fixed-shape binary reduction of per-shard accumulators:
/// round r merges shard i + 2^r into shard i for every i ≡ 0 (mod
/// 2^(r+1)), so each intermediate accumulator always covers a contiguous
/// canonical shard range with the earlier range on the left — the same
/// ordering semantics as a sequential left fold, at O(log shards) merge
/// depth instead of O(shards). The tree shape depends only on the shard
/// count, never on the thread count, so campaign results stay
/// bit-identical for any num_threads.
template <typename Accumulator>
Accumulator merge_shard_tree(std::vector<Accumulator> shards) {
  SABLE_REQUIRE(!shards.empty(), "merge tree needs at least one shard");
  for (std::size_t stride = 1; stride < shards.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < shards.size(); i += 2 * stride) {
      shards[i].merge(shards[i + stride]);
    }
  }
  return std::move(shards.front());
}

/// Receives (plaintexts, data, count) blocks as the campaign streams.
/// `plaintexts` holds count * round().state_bytes() packed bytes — one
/// byte per trace for single-S-box targets, the wide state for rounds
/// (extract an instance's sub-plaintexts with RoundSpec::sub_words).
/// `data` holds count summed samples (stream), or count rows of
/// target().num_levels() samples each (stream_sampled).
using TraceSink =
    std::function<void(const std::uint8_t*, const double*, std::size_t)>;

class WorkerPool;  // engine/worker_pool.hpp

class TraceEngine {
 public:
  /// An engine over a full round: every instance of `round` is
  /// synthesized (identical specs share a circuit) and simulated side by
  /// side, emitting summed power.
  TraceEngine(const RoundSpec& round, const Technology& tech);

  /// Single-S-box adapter (the historic constructor): the N = 1 round.
  TraceEngine(const SboxSpec& spec, LogicStyle style, const Technology& tech);

  ~TraceEngine();
  TraceEngine(TraceEngine&&) noexcept;
  TraceEngine& operator=(TraceEngine&&) noexcept;

  /// Runs the campaign without retaining traces: each shard of at most
  /// campaign_shard_size() traces is simulated bit-parallel and handed to
  /// `sink` in canonical shard order on the calling thread (the sink
  /// never runs concurrently with itself). With several threads, shards
  /// go in double-buffered waves of O(threads) shards: the workers
  /// simulate the next wave while the calling thread emits the previous
  /// one, so in-flight storage is two waves however slow the sink, and
  /// an exception from the sink or a worker propagates to the caller
  /// after at most one wave of extra simulation.
  void stream(const CampaignOptions& options, const TraceSink& sink);

  /// As stream(), but time-resolved: each trace is a row of
  /// target().num_levels() per-logic-level samples. Covers every logic
  /// style (differential, static CMOS, WDDL).
  void stream_sampled(const CampaignOptions& options, const TraceSink& sink);

  /// Drives any set of pluggable distinguishers through ONE simulated
  /// campaign — the path every attack takes (attack() is this with one
  /// distinguisher). Per shard, each distinguisher's ShardAccumulator
  /// consumes the shard's block (sub-plaintext extraction deduplicated
  /// per attacked instance, one virtual dispatch per distinguisher per
  /// shard); per-shard states reduce through the fixed-shape merge tree,
  /// or the ordered left fold for Distinguisher::ordered() (MTD prefix
  /// semantics). Afterwards each distinguisher holds its typed result.
  /// Mixing scalar and time-resolved distinguishers simulates each shard
  /// once per data kind with identical per-kind streams, so every result
  /// is bit-identical to the same distinguisher run alone. Results are
  /// bit-identical for any num_threads.
  ///
  /// Persistence: optionally resumes shard states from
  /// persist.resume_path, simulates only the uncovered shards of
  /// [shard_begin, shard_end), checkpoints to persist.checkpoint_path in
  /// waves, and — when every canonical shard is covered — reduces and
  /// finalizes exactly as an unpersisted run. Returns true when results
  /// were finalized, false for a partial (persisted) run whose shard
  /// states went to the checkpoint file. Checkpoints store RAW per-shard
  /// states (see io/campaign_state.hpp), so resumed, split and merged
  /// campaigns are bit-identical to one uninterrupted local run.
  bool run_distinguishers(const CampaignOptions& options,
                          std::span<Distinguisher* const> distinguishers,
                          const CampaignPersistence& persist = {});

  /// Folds N partial campaign-state files (each from a
  /// run_distinguishers invocation over a disjoint shard range — the
  /// multi-process fan-out) into finalized results: every file's
  /// manifest must match this campaign, together they must cover every
  /// canonical shard exactly once, and the reduction is the same
  /// fixed-shape tree a single local run performs — bit-identical
  /// results, proven in tests. No simulation happens here.
  void merge_partials(const CampaignOptions& options,
                      std::span<Distinguisher* const> distinguishers,
                      const std::vector<std::string>& partial_paths);

  /// Records the campaign's trace stream to a corpus file at `path`
  /// (io/corpus.hpp) through stream() / stream_sampled(): the workers
  /// simulate the next wave of shards while the calling thread encodes
  /// and writes the previous one in canonical order, scalar or
  /// cycle-sampled per `kind`. The default writes the v2
  /// delta+plane+RLE compressed format; pass
  /// `kCorpusCompressionNone` for raw v2 chunks, and `version = 1` (raw
  /// only) for a backward-compatible v1 file. Whatever the encoding, the
  /// corpus replays into any matching distinguisher set bit-identically
  /// to the live campaign.
  void record(const CampaignOptions& options, TraceDataKind kind,
              const std::string& path,
              std::uint32_t compression = kCorpusCompressionDeltaPlaneRle,
              std::uint32_t version = kCorpusVersion2);

  /// Replays a recorded corpus into `distinguishers` — no simulation,
  /// same results, same persistence controls as run_distinguishers
  /// (replay_distinguishers over this engine's worker pool). The corpus
  /// must have been recorded for this engine's round.
  bool replay(const CorpusReader& corpus,
              std::span<Distinguisher* const> distinguishers,
              const CampaignPersistence& persist = {},
              std::size_t num_threads = 0);

  /// The manifest pinning this engine + options campaign (resolved shard
  /// layout, round spec hash) — what every persisted artifact of the
  /// campaign is validated against.
  CampaignManifest campaign_manifest(const CampaignOptions& options) const;

  /// Runs one distinguisher alone through run_distinguishers and returns
  /// a copy of its typed result, e.g.
  ///   engine.attack(options, CpaDistinguisher(engine.spec(i), selector))
  /// Every attack (CPA, DoM, MTD, multi-sample and second-order CPA) is
  /// this call with its Distinguisher; several attacks sharing one
  /// campaign go through run_distinguishers directly.
  template <class D>
  auto attack(const CampaignOptions& options, D&& distinguisher) {
    Distinguisher* const list[] = {&distinguisher};
    run_distinguishers(options, list);
    return distinguisher.result();
  }

  RoundTarget& target() { return target_; }
  const RoundSpec& round() const { return target_.round(); }
  /// Spec of one S-box instance (the attacked one, usually).
  const SboxSpec& spec(std::size_t sbox_index = 0) const;

 private:
  RoundTarget target_;
  // Parked campaign threads: spawned on the first multi-threaded
  // campaign, reused by every later one.
  std::unique_ptr<WorkerPool> workers_;
};

}  // namespace sable
