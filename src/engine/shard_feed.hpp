// The per-shard feed shared by the live engine and corpus replay: one
// shard's traces in, one accumulated ShardBlock per distinguisher out.
// Live and replayed attacks run this exact code on the exact same
// blocks, which is what makes their results bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dpa/block_stats.hpp"
#include "dpa/distinguisher.hpp"

namespace sable {

struct RoundSpec;  // crypto/round_target.hpp

/// One shard's traces as the feed consumes them: `count` packed round
/// states at `pts` (round.state_bytes() bytes each), plus the data of
/// each kind the distinguishers consume — `scalar` holds one summed
/// sample per trace, `rows` one row of `levels` samples per trace. A
/// kind no distinguisher consumes may stay null.
struct ShardTraces {
  std::size_t shard = 0;  // canonical shard index (the states column)
  std::size_t start = 0;  // canonical index of the shard's first trace
  std::size_t count = 0;
  const std::uint8_t* pts = nullptr;
  const double* scalar = nullptr;
  const double* rows = nullptr;
  std::size_t levels = 0;
};

/// Feeds shards to a distinguisher set. The per-instance work is
/// deduplicated: distinguishers attacking the same instance share one
/// RoundSpec::sub_words pass per shard; when any of them consumes scalar
/// data, one ScalarHistogram of (sub-plaintexts, samples) per shard,
/// handed to each scalar block as ShardBlock::histogram; and when any of
/// them consumes sampled data, one SampledHistogram of (sub-plaintexts,
/// rows) per shard, handed to each sampled block as
/// ShardBlock::sampled_histogram. A round
/// of one byte-wide S-box skips the extraction and hands the plaintexts
/// through as the sub-plaintexts, so a byte outside the S-box input range
/// reaches the accumulators, which reject it ("plaintext out of range").
class ShardFeed {
 public:
  /// A worker's reusable feed storage: every slot's sub-plaintexts and
  /// scalar and sampled histograms for the shard being fed.
  struct Scratch {
    std::vector<std::uint8_t> sub_pts;
    std::vector<ScalarHistogram> histograms;
    std::vector<SampledHistogram> sampled;
  };

  /// `round` and `distinguishers` must outlive the feed.
  ShardFeed(const RoundSpec& round,
            std::span<Distinguisher* const> distinguishers);

  /// True when some distinguisher consumes `kind` data.
  bool consumes(TraceDataKind kind) const;

  /// Creates states[d][traces.shard] for every distinguisher d and
  /// accumulates the shard into it. `scratch` is the calling worker's;
  /// distinct shards may be fed concurrently.
  void feed(const ShardTraces& traces, ShardStates& states,
            Scratch& scratch) const;

 private:
  const RoundSpec& round_;
  std::span<Distinguisher* const> distinguishers_;
  std::vector<std::size_t> slot_sbox_;  // extraction slot -> instance
  std::vector<bool> slot_scalar_;       // slot has a scalar consumer
  std::vector<bool> slot_sampled_;      // slot has a sampled consumer
  std::vector<std::size_t> slot_of_;    // distinguisher -> slot
  bool alias_ = false;                  // pts double as sub-plaintexts
};

}  // namespace sable
