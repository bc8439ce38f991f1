// Streaming (one-pass) attack accumulators.
//
// The classic CPA/DoM formulations keep every trace resident and make one
// pass per key guess; at the 10^5–10^7 traces an MTD curve needs, that is
// the memory and time bottleneck of the whole experiment. The accumulators
// here consume traces as they are produced — O(guesses) state, one pass —
// and can be snapshotted at any point, which is exactly what an
// incremental measurements-to-disclosure driver needs.
//
// One consumption path: add_block() (dpa/block_stats.hpp) — per-plaintext
// sufficient statistics in one O(count) pass, one dense contraction per
// block, then a pairwise fold of the block's moments into the running
// state. Every accumulator in the dpa layer takes it, second-order CPA
// included (dpa/second_order.hpp: a guess-free pair-moment pass, then
// the same contraction GEMM), so no per-trace guess loop remains. The
// engine's shard pipeline feeds each shard once (MTD once per sub-block
// between checkpoints); CPA and DoM split add_block into the histogram
// pass and add_histogram, so the shard feed can compute one scalar
// histogram per attacked instance and hand it to all of them. The
// resident-trace entry points (cpa_attack, dom_attack,
// cpa_attack_multisample) are one add_block call over the whole trace
// set.
//
// Numerics: samples are accumulated relative to a shift (the block's
// first sample) and folded as Welford-form moments (not raw-moment sums),
// so the scores agree with the two-pass Pearson formulation to ~1e-13
// even though trace energies sit at ~1e-13 J with ~1e-15 J of
// data-dependent variation. A constant trace stream therefore scores
// exactly zero in every distinguisher: every shifted sample is an exact
// 0.0.
//
// Every accumulator is copyable (copies share the immutable prediction
// table) and mergeable: merge() folds another accumulator over a disjoint
// trace subset into this one in O(guesses), the primitive under the
// thread-sharded TraceEngine. Merging in a fixed order is deterministic,
// so sharded campaigns are bit-identical for any thread count. The block
// kernels' working set is per thread, never part of an accumulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/leakage.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "power/stats.hpp"

namespace sable {

class ByteReader;
class ByteWriter;
struct ScalarHistogram;   // dpa/block_stats.hpp
struct SampledHistogram;  // dpa/block_stats.hpp

// Serialization (io/serial.hpp): every streaming accumulator has a
// versionless tagged save()/load() pair embedded inside the versioned
// campaign-state container (io/campaign_state.hpp). save() emits a type
// tag, the configuration (guess count, model, bit, width) and the moment
// state bit-exactly; load() overwrites the moment state of an accumulator
// ALREADY CONSTRUCTED with the matching spec — the prediction tables are
// rebuilt from the spec, never trusted from disk — and throws
// InvalidArgument when the tag or configuration disagrees (the container
// wraps that into a path-tagged typed error).

/// One-pass correlation power analysis: per key guess a running mean /
/// M2 / co-moment against the shared sample stream.
class StreamingCpa {
 public:
  StreamingCpa(const SboxSpec& spec, PowerModel model, std::size_t bit = 0);

  /// Block-factored hot path (dpa/block_stats.hpp): one O(count)
  /// histogram pass with no guess loop, one G×P contraction against the
  /// prediction table, then a pairwise fold of the block's moments into
  /// the running state. The plaintext range check and the non-finite
  /// sample check (InvalidArgument on a NaN or Inf) are hoisted to once
  /// per block. Scores agree with the two-pass Pearson formulation to ~1e-13
  /// and are bit-identical across dispatch tiers; one add_block
  /// call per engine shard makes sharded campaigns bit-identical across
  /// thread counts.
  void add_block(const std::uint8_t* pts, const double* samples,
                 std::size_t count);

  /// add_block's contraction step over an already computed histogram:
  /// add_block(pts, samples, count) is exactly histogram.compute(pts,
  /// samples, count) followed by this call, so accumulators sharing one
  /// histogram stay bit-identical to private ones. Throws InvalidArgument
  /// on an out-of-range plaintext or a non-finite sample.
  void add_histogram(const ScalarHistogram& histogram);

  /// Folds `other` — an accumulator over a disjoint trace subset with the
  /// same spec/model/bit configuration — into this one: flat-array
  /// co-moment merge, O(guesses). The result carries the moments of the
  /// concatenated streams.
  void merge(const StreamingCpa& other);

  std::size_t count() const { return t_.count(); }
  std::size_t num_guesses() const { return num_guesses_; }

  /// Attack scores over the traces consumed so far (|rho| per guess).
  /// Cheap enough to snapshot at every MTD checkpoint.
  AttackResult result() const;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // The shared pairwise-combination step: folds one trace subset's
  // Welford-form moments (a block's converted sufficient statistics, or
  // another accumulator's state — merge() routes through this) into the
  // running state.
  void fold_block(std::size_t count, double mean_t, double m2_t,
                  const double* block_mean_h, const double* block_m2_h,
                  const double* block_c_ht);

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  PowerModel model_;
  std::size_t bit_;
  // Immutable and shared between copies: cloning an accumulator for a new
  // campaign shard costs O(guesses), not O(guesses^2) table rebuilding.
  std::shared_ptr<const std::vector<double>>
      predictions_;  // [pt * num_guesses_ + guess]
  OnlineMoments t_;  // shared sample-stream moments
  // Per-guess prediction moments and co-moments, kept as flat arrays (not
  // one OnlineMoments per guess) so the fold's guess loop stays tight.
  std::vector<double> mean_h_;
  std::vector<double> m2_h_;
  std::vector<double> c_ht_;
};

/// One-pass difference-of-means DPA on one predicted output bit. The
/// partition sums are stored relative to a shift (the first sample the
/// accumulator saw), the way CPA shifts its moments: the mean difference
/// is shift-invariant, and a constant trace stream leaves every partition
/// sum an exact 0.0, so it scores exactly zero.
class StreamingDom {
 public:
  StreamingDom(const SboxSpec& spec, std::size_t bit = 0);

  /// Block-factored hot path: per-plaintext counts/sums (shifted by the
  /// block's first sample) in one pass with no guess loop, then one
  /// partitioned contraction against the predicted-bit table, folded in
  /// through the same rebasing step merge() uses. Counts are exact.
  void add_block(const std::uint8_t* pts, const double* samples,
                 std::size_t count);

  /// add_block's contraction step over an already computed histogram
  /// (see StreamingCpa::add_histogram).
  void add_histogram(const ScalarHistogram& histogram);

  /// Folds `other` (disjoint traces, same spec/bit) into this one: counts
  /// add exactly; partition sums add after rebasing `other`'s onto this
  /// accumulator's shift (cnt × Δshift).
  void merge(const StreamingDom& other);

  std::size_t count() const { return n_; }
  AttackResult result() const;

  /// Saves under the shifted-layout tag; load() also accepts the older
  /// unshifted layout (raw sums are sums relative to a shift of 0).
  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // The shared combination step: folds one trace subset's partition state
  // (a block's contraction, or another accumulator — merge() routes
  // through this) into the running state.
  void fold_partitions(std::size_t count, double shift, const double* sum0,
                       const double* sum1, const std::uint64_t* cnt0,
                       const std::uint64_t* cnt1);

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  std::size_t bit_;
  std::shared_ptr<const std::vector<std::uint8_t>>
      predicted_bit_;  // [pt * num_guesses_ + guess]
  std::size_t n_ = 0;
  double shift_ = 0.0;  // partition sums are Σ (sample − shift_)
  std::vector<double> sum_[2];
  std::vector<std::uint64_t> cnt_[2];
};

/// One-pass time-resolved CPA: one correlation accumulator per sample
/// column, sharing the per-guess prediction moments (the prediction stream
/// does not depend on the column). O(width * guesses) state.
class StreamingMultiCpa {
 public:
  StreamingMultiCpa(const SboxSpec& spec, PowerModel model, std::size_t width,
                    std::size_t bit = 0);

  /// Block-factored hot path over `count` rows of `width()` samples: one
  /// histogram pass building per-plaintext per-level column sums, a
  /// G×P · P×L contraction GEMM, then a per-column pairwise fold — the
  /// time-resolved sibling of StreamingCpa::add_block with the same
  /// accuracy and cross-tier bit-identity guarantees.
  void add_block(const std::uint8_t* pts, const double* rows,
                 std::size_t count);

  /// add_block's contraction step over an already computed histogram:
  /// add_block(pts, rows, count) is exactly histogram.compute(pts, rows,
  /// count, width()) followed by this call (see
  /// StreamingCpa::add_histogram). Throws InvalidArgument on a width
  /// other than width(), an out-of-range plaintext or a non-finite
  /// sample.
  void add_histogram(const SampledHistogram& histogram);

  std::size_t count() const { return n_; }
  std::size_t width() const { return width_; }

  /// Folds `other` (disjoint traces, same spec/model/width/bit) into this
  /// one: per-column co-moment merge sharing the per-guess prediction
  /// moment merge, O(width * guesses).
  void merge(const StreamingMultiCpa& other);

  MultiAttackResult result() const;

  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // Shared pairwise-combination step (per-column co-moments first, then
  // the prediction moments, then the column Welford merges — the order
  // merge() always used); merge() routes through this.
  void fold_block(std::size_t count, const double* mean_t,
                  const double* m2_t, const double* block_mean_h,
                  const double* block_m2_h, const double* block_c_ht);

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  std::size_t width_;
  PowerModel model_;
  std::size_t bit_;
  std::shared_ptr<const std::vector<double>>
      predictions_;  // [pt * num_guesses_ + guess]
  std::size_t n_ = 0;
  std::vector<double> mean_h_;       // per guess (shared across columns)
  std::vector<double> m2_h_;
  std::vector<OnlineMoments> t_;     // per column
  std::vector<double> c_ht_;         // [column * num_guesses_ + guess]
};

}  // namespace sable
