#include "engine/trace_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "engine/shard_feed.hpp"
#include "engine/shard_reduce.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus.hpp"
#include "io/replay.hpp"
#include "util/error.hpp"

namespace sable {

std::size_t campaign_shard_size(const CampaignOptions& options) {
  // Shard granularity is pinned to 64 traces, the logical lanes of the
  // table-lane history. The max() clamps shard sizes below one granule
  // to a whole 64-lane word instead of letting the division round them
  // to zero shards.
  constexpr std::size_t kGranule = SablGateSimBatch::kLanes;
  if (options.shard_size == 0) {
    // Autotune. shard_size is part of the stream definition, so the
    // derived size must be a pure function of the options: only
    // num_traces and fixed constants enter — never the thread count or
    // anything probed from the machine. Aim for ~256
    // shards (dynamic-scheduling slack for any realistic core count
    // without drowning in per-shard setup), keep campaigns up to 1024
    // traces single-shard, and cap shards at 65536 traces so per-shard
    // trace buffers stay cache-sized.
    constexpr std::size_t kTargetShards = 256;
    constexpr std::size_t kMinShard = 1024;
    constexpr std::size_t kMaxShard = 65536;
    const std::size_t derived =
        options.num_traces / kTargetShards / kGranule * kGranule;
    return std::clamp(derived, kMinShard, kMaxShard);
  }
  return std::max<std::size_t>(kGranule,
                               options.shard_size / kGranule * kGranule);
}

std::uint64_t campaign_shard_seed(std::uint64_t campaign_seed,
                                  std::size_t shard, std::size_t stream) {
  // splitmix64 finalizer over a (seed, shard, stream) counter: every shard
  // gets a decorrelated sub-stream that is reproducible from the campaign
  // seed and the shard index alone, no matter which worker runs it.
  std::uint64_t z =
      campaign_seed ^
      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(shard) + 1)) ^
      (0xD1B54A32D192ED03ULL * (static_cast<std::uint64_t>(stream) + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t campaign_thread_count(const CampaignOptions& options) {
  return resolve_thread_count(options.num_threads);
}

std::size_t campaign_lane_width(const CampaignOptions&, LogicStyle) {
  // Campaigns have no lane width: every trace is gathered from energy
  // tables built by the 64-lane kernel, so this reports 64. It stays only
  // for the campaign benchmark's engine.lane_width counter; a later
  // benchmark change removes that counter and this function.
  return 64;
}

namespace {

// Fixed block-granular decomposition of a campaign: shard s covers traces
// [start(s), start(s) + count(s)) of the canonical trace order.
struct ShardLayout {
  std::size_t shard_size = 0;
  std::size_t num_shards = 0;
  std::size_t num_traces = 0;
  std::size_t start(std::size_t s) const { return s * shard_size; }
  std::size_t count(std::size_t s) const {
    return std::min(shard_size, num_traces - start(s));
  }
};

ShardLayout layout_for(const CampaignOptions& options) {
  ShardLayout layout;
  layout.shard_size = campaign_shard_size(options);
  layout.num_traces = options.num_traces;
  layout.num_shards =
      (options.num_traces + layout.shard_size - 1) / layout.shard_size;
  return layout;
}

// The up-front checks every campaign entry point runs before it
// simulates, reads or writes anything.
void validate_options(const RoundSpec& round,
                      const CampaignOptions& options) {
  SABLE_REQUIRE(options.key.size() == round.state_bytes(),
                "CampaignOptions::key must hold round().state_bytes() packed "
                "bytes (use RoundSpec::pack_subkeys)");
  // A NaN or infinite sigma would make every sample non-finite, which
  // the accumulators would only reject block by block. A negative sigma
  // keeps its meaning: samples get sigma·z for standard normal draws z,
  // zero-mean noise of RMS |sigma| either way.
  SABLE_REQUIRE(std::isfinite(options.noise_sigma),
                "CampaignOptions::noise_sigma must be finite");
}

// Simulates one shard into caller-provided storage: `data` receives count
// summed samples for kScalar, count rows of num_levels() samples for
// kSampled. Shard s's wide plaintexts are RoundSpec::fill_random_states
// over its counter-derived plaintext sub-stream (for a single byte-wide
// S-box the historic one-draw-per-trace stream, bit for bit); together
// with the per-shard noise stream and fresh table-lane state this makes
// the result a pure function of (options, shard, kind) — the invariant
// every determinism guarantee rests on.
void simulate_shard(RoundTarget& target, const CampaignOptions& options,
                    const ShardLayout& layout, std::size_t shard,
                    TraceDataKind kind, std::uint8_t* pts, double* data) {
  const std::size_t count = layout.count(shard);
  Rng pt_rng(campaign_shard_seed(options.seed, shard, 0));
  target.round().fill_random_states(pt_rng, count, pts);
  Rng noise_rng(campaign_shard_seed(options.seed, shard, 1));
  target.reset_state();
  if (kind == TraceDataKind::kScalar) {
    target.trace_batch(pts, count, options.key.data(), options.noise_sigma,
                       noise_rng, data);
  } else {
    target.trace_batch_sampled(pts, count, options.key.data(),
                               options.noise_sigma, noise_rng, data);
  }
}

// One shard's trace storage, grown on demand and reused: a stream slot,
// or an attack worker's buffers. `samples` and `rows` hold the scalar /
// time-resolved data side by side (a mixed attack campaign needs both).
// Cache-line aligned so neighbouring stream slots, filled by different
// workers, never share a line.
struct alignas(64) ShardBuffers {
  std::vector<std::uint8_t> pts;
  std::vector<double> samples;
  std::vector<double> rows;

  void ensure(std::size_t traces, std::size_t pt_stride, bool scalar,
              std::size_t levels) {
    if (pts.size() < traces * pt_stride) pts.resize(traces * pt_stride);
    if (scalar && samples.size() < traces) samples.resize(traces);
    if (rows.size() < traces * levels) rows.resize(traces * levels);
  }
  // The storage simulate_shard writes `kind`'s data into.
  double* data(TraceDataKind kind) {
    return kind == TraceDataKind::kScalar ? samples.data() : rows.data();
  }
};

// An attack worker's context: its clone of the engine's target, its
// shard buffers and the shard feed's scratch — so the shard loop never
// allocates in steady state or shares mutable state.
struct WorkerCtx {
  RoundTarget target;
  ShardBuffers buffers;
  ShardFeed::Scratch feed_scratch;
};

// Waves of the stream loop hold kWaveShardsPerThread shards per
// simulating thread. Every wave ends in a pool join that parks and
// re-wakes the workers, so short waves pay that hand-off often: on
// ~60k-trace SABL streams at 4 threads, 2 and 4 shards per thread lost
// to a barrier-free hand-off by more than its run-to-run spread, 8 did
// not. In-flight storage stays two waves of 8 * threads slots.
constexpr std::size_t kWaveShardsPerThread = 8;

// The one ordered-emission driver, behind stream(), stream_sampled() and
// record(): simulates every shard (`kind` data) and hands each to `sink`
// in canonical shard order on the calling thread, so the sink never runs
// concurrently with itself. Shards go in double-buffered waves: each
// WorkerPool::run of threads + 1 parties simulates wave k + 1 into one
// slot set on parties 1..threads while party 0 — the calling thread —
// emits wave k from the other set. The pool's join is the only hand-off,
// so a sink or worker exception propagates through it after at most one
// wave of extra simulation, and the slots' buffers are recycled from
// wave to wave, so steady-state streaming does not allocate.
void stream_waves(const RoundTarget& prototype, WorkerPool& workers,
                  const CampaignOptions& options, TraceDataKind kind,
                  const TraceSink& sink) {
  const ShardLayout layout = layout_for(options);
  const std::size_t stride = prototype.round().state_bytes();
  const bool scalar = kind == TraceDataKind::kScalar;
  const std::size_t levels = scalar ? 0 : prototype.num_levels();
  const std::size_t threads =
      std::min(resolve_thread_count(options.num_threads), layout.num_shards);
  if (threads <= 1) {
    RoundTarget target = prototype.clone();
    ShardBuffers slot;
    for (std::size_t s = 0; s < layout.num_shards; ++s) {
      slot.ensure(layout.count(s), stride, scalar, levels);
      simulate_shard(target, options, layout, s, kind,
                     slot.pts.data(), slot.data(kind));
      sink(slot.pts.data(), slot.data(kind), layout.count(s));
    }
    return;
  }

  const std::size_t wave = kWaveShardsPerThread * threads;
  const std::size_t num_waves = (layout.num_shards + wave - 1) / wave;
  std::vector<ShardBuffers> slots[2];
  for (std::size_t k = 0; k <= num_waves; ++k) {
    const std::size_t first = k * wave;
    const std::size_t fill =
        k < num_waves ? std::min(wave, layout.num_shards - first) : 0;
    std::vector<ShardBuffers>& filling = slots[k % 2];
    if (filling.size() < fill) filling.resize(fill);
    const auto emit_previous = [&] {
      if (k == 0) return;
      const std::size_t begin = first - wave;
      for (std::size_t s = begin; s < std::min(first, layout.num_shards);
           ++s) {
        ShardBuffers& slot = slots[(k - 1) % 2][s - begin];
        sink(slot.pts.data(), slot.data(kind), layout.count(s));
      }
    };
    parallel_for(
        workers, threads, fill,
        [&] { return prototype.clone(); },
        [&](RoundTarget& target, std::size_t i) {
          const std::size_t s = first + i;
          ShardBuffers& slot = filling[i];
          slot.ensure(layout.count(s), stride, scalar, levels);
          simulate_shard(target, options, layout, s, kind,
                         slot.pts.data(), slot.data(kind));
        },
        emit_previous);
  }
}

// The ONE campaign driver behind every attack: shard scheduling, worker
// targets and shard reduction, written once for any set of
// distinguishers. Per shard the worker simulates the trace data each
// data kind needs (scalar and/or time-resolved — both streams are
// exactly what the single-kind campaigns generate, so sharing a campaign
// never changes a result) and hands it to the shard feed, the per-shard
// code replay runs too: ONE virtual dispatch per distinguisher per shard,
// per-trace loops devirtualized inside the concrete accumulators.
// Unordered distinguishers reduce through the fixed-shape binary merge
// tree (shape a function of the shard count only); ordered ones (MTD)
// through a strict left fold in canonical shard order. Either way the
// result is bit-identical for any num_threads.
bool run_distinguishers_impl(const RoundTarget& prototype, WorkerPool& workers,
                             const CampaignOptions& options,
                             const CampaignManifest& manifest,
                             std::span<Distinguisher* const> distinguishers,
                             const CampaignPersistence& persist) {
  const ShardLayout layout = layout_for(options);
  const std::size_t stride = prototype.round().state_bytes();
  const std::size_t levels = prototype.num_levels();
  const ShardFeed feed(prototype.round(), distinguishers);
  const bool scalar = feed.consumes(TraceDataKind::kScalar);
  const bool sampled = feed.consumes(TraceDataKind::kSampled);

  // states[d][s]: distinguisher d's accumulator for shard s. Workers only
  // touch their own shard's states — distinct vector elements — so the
  // matrix needs no locking. The accumulators themselves are constructed
  // lazily BY the worker that runs the shard (in the feed), not serially
  // up front: with thousands of shards the upfront loop was serial work
  // on the caller, and consecutive heap allocations from one thread pack
  // accumulators of different shards into shared cache lines, which the
  // workers then dirty from different cores. Worker-side construction
  // spreads the allocations over the workers' own malloc arenas, killing
  // both the serial section and the false sharing at once.
  ShardStates states(distinguishers.size());
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    states[d].resize(layout.num_shards);
  }

  const auto accumulate = [&](const std::vector<std::size_t>& work) {
    parallel_for(
        workers, options.num_threads, work.size(),
        [&] { return WorkerCtx{prototype.clone(), {}, {}}; },
        [&](WorkerCtx& ctx, std::size_t k) {
          const std::size_t s = work[k];
          ShardBuffers& buffers = ctx.buffers;
          buffers.ensure(layout.count(s), stride, scalar,
                         sampled ? levels : 0);
          // A mixed campaign simulates the shard once per data kind; the
          // plaintext stream is regenerated identically (same
          // counter-derived seed) and each kind draws its noise exactly
          // as its single-kind campaign would, so both blocks match the
          // standalone paths bit for bit.
          if (scalar) {
            simulate_shard(ctx.target, options, layout, s,
                           TraceDataKind::kScalar, buffers.pts.data(),
                           buffers.samples.data());
          }
          if (sampled) {
            simulate_shard(ctx.target, options, layout, s,
                           TraceDataKind::kSampled, buffers.pts.data(),
                           buffers.rows.data());
          }
          ShardTraces traces;
          traces.shard = s;
          traces.start = layout.start(s);
          traces.count = layout.count(s);
          traces.pts = buffers.pts.data();
          traces.scalar = buffers.samples.data();
          traces.rows = buffers.rows.data();
          traces.levels = levels;
          feed.feed(traces, states, ctx.feed_scratch);
        });
  };

  // The persistence wrapper (resume, wave checkpoints, range splits) is a
  // no-op for default persistence: the worklist is then every shard in
  // one wave — the historic in-memory run, bit for bit. The reduction
  // (fixed-shape tree / ordered fold) lives in engine/shard_reduce.cpp,
  // shared with the replay and partial-merge paths.
  if (!run_persisted_waves(manifest, distinguishers, states, persist,
                           accumulate)) {
    return false;
  }
  reduce_and_finalize_distinguishers(distinguishers, states, workers,
                                     options.num_threads);
  return true;
}

}  // namespace

// ---- TraceEngine ----------------------------------------------------------

TraceEngine::TraceEngine(const RoundSpec& round, const Technology& tech)
    : target_(round, tech), workers_(std::make_unique<WorkerPool>()) {}

TraceEngine::TraceEngine(const SboxSpec& spec, LogicStyle style,
                         const Technology& tech)
    : target_(single_sbox_round(spec, style), tech),
      workers_(std::make_unique<WorkerPool>()) {}

TraceEngine::~TraceEngine() = default;
TraceEngine::TraceEngine(TraceEngine&&) noexcept = default;
TraceEngine& TraceEngine::operator=(TraceEngine&&) noexcept = default;

const SboxSpec& TraceEngine::spec(std::size_t sbox_index) const {
  SABLE_REQUIRE(sbox_index < round().num_sboxes(),
                "S-box index out of range for the round");
  return round().sboxes[sbox_index];
}

void TraceEngine::stream(const CampaignOptions& options,
                         const TraceSink& sink) {
  validate_options(round(), options);
  stream_waves(target_, *workers_, options, TraceDataKind::kScalar, sink);
}

void TraceEngine::stream_sampled(const CampaignOptions& options,
                                 const TraceSink& sink) {
  validate_options(round(), options);
  SABLE_REQUIRE(target_.num_levels() > 0,
                "time-resolved campaigns need at least one logic level");
  stream_waves(target_, *workers_, options, TraceDataKind::kSampled, sink);
}

bool TraceEngine::run_distinguishers(
    const CampaignOptions& options,
    std::span<Distinguisher* const> distinguishers,
    const CampaignPersistence& persist) {
  SABLE_REQUIRE(!distinguishers.empty(),
                "run_distinguishers needs at least one distinguisher");
  SABLE_REQUIRE(options.num_traces >= 2,
                "attack campaigns require at least two traces");
  validate_options(round(), options);
  for (Distinguisher* d : distinguishers) {
    SABLE_REQUIRE(d != nullptr, "distinguisher must not be null");
    d->validate(round());
    if (d->data_kind() == TraceDataKind::kSampled) {
      SABLE_REQUIRE(target_.num_levels() > 0,
                    "time-resolved campaigns need at least one logic level");
    }
  }
  const CampaignManifest manifest = campaign_manifest(options);
  return run_distinguishers_impl(target_, *workers_, options, manifest,
                                 distinguishers, persist);
}

void TraceEngine::merge_partials(
    const CampaignOptions& options,
    std::span<Distinguisher* const> distinguishers,
    const std::vector<std::string>& partial_paths) {
  SABLE_REQUIRE(!distinguishers.empty(),
                "merge_partials needs at least one distinguisher");
  SABLE_REQUIRE(!partial_paths.empty(),
                "merge_partials needs at least one partial state file");
  validate_options(round(), options);
  for (Distinguisher* d : distinguishers) {
    SABLE_REQUIRE(d != nullptr, "distinguisher must not be null");
    d->validate(round());
  }
  const CampaignManifest manifest = campaign_manifest(options);
  ShardStates states(distinguishers.size());
  for (auto& row : states) {
    row.resize(static_cast<std::size_t>(manifest.num_shards));
  }
  // Overlaps between files throw ShardIndexError from the loader; gaps
  // surface in the reducer's full-coverage check.
  for (const std::string& path : partial_paths) {
    load_campaign_state(path, manifest, distinguishers, states);
  }
  reduce_and_finalize_distinguishers(distinguishers, states, *workers_,
                                     options.num_threads);
}

void TraceEngine::record(const CampaignOptions& options, TraceDataKind kind,
                         const std::string& path, std::uint32_t compression,
                         std::uint32_t version) {
  validate_options(round(), options);
  SABLE_REQUIRE(options.num_traces >= 1,
                "recording requires at least one trace");
  CorpusManifest manifest;
  manifest.campaign = campaign_manifest(options);
  manifest.compression = compression;
  manifest.pt_stride = round().state_bytes();
  if (kind == TraceDataKind::kScalar) {
    manifest.kind = kCorpusKindScalar;
    manifest.sample_width = 1;
  } else {
    SABLE_REQUIRE(target_.num_levels() > 0,
                  "time-resolved campaigns need at least one logic level");
    manifest.kind = kCorpusKindSampled;
    manifest.sample_width = target_.num_levels();
  }
  CorpusWriter writer(path, manifest, version);
  // stream()/stream_sampled() emit shards in canonical order on the
  // calling thread — exactly append_shard's contract.
  const auto sink = [&](const std::uint8_t* pts, const double* samples,
                        std::size_t count) {
    writer.append_shard(pts, samples, count);
  };
  if (kind == TraceDataKind::kScalar) {
    stream(options, sink);
  } else {
    stream_sampled(options, sink);
  }
  writer.finish();
}

bool TraceEngine::replay(const CorpusReader& corpus,
                         std::span<Distinguisher* const> distinguishers,
                         const CampaignPersistence& persist,
                         std::size_t num_threads) {
  return replay_distinguishers(corpus, round(), distinguishers, persist,
                               num_threads, workers_.get());
}

CampaignManifest TraceEngine::campaign_manifest(
    const CampaignOptions& options) const {
  const ShardLayout layout = layout_for(options);
  CampaignManifest manifest;
  manifest.spec_hash = round_spec_hash(round());
  manifest.seed = options.seed;
  manifest.num_traces = options.num_traces;
  manifest.shard_size = layout.shard_size;
  manifest.num_shards = layout.num_shards;
  manifest.noise_sigma = options.noise_sigma;
  manifest.key = options.key;
  return manifest;
}

}  // namespace sable
