// Block-factored accumulation (dpa/block_stats.hpp + the add_block
// paths in dpa/streaming.hpp): the three contracts the pipeline leans
// on.
//
//  1. Equivalence — the block-factored path scores within 1e-12 of the
//     naive two-pass oracle (dpa_reference.hpp), for CPA (4- and 8-bit
//     sboxes), DoM (relative to its ~1e-15 score scale), MultiCpa and
//     second-order CPA (4- and 8-bit sboxes, one pair and many).
//  2. Cross-tier bit-identity — the same blocks produce byte-identical
//     serialized state under every dispatch tier the build and the
//     machine support, and the raw kernels agree bitwise output-for-
//     output, the sampled and pair passes with their per-trace reference
//     loops (dpa_reference.hpp) too. This is what lets a corpus recorded
//     on an AVX-512 box resume on a portable one.
//  3. Persistence shape — save after K blocks, load, feed the
//     remaining block (or merge a partial holding it): the re-saved
//     state is byte-identical to straight-through accumulation. This
//     is exactly the checkpoint/resume and merge_partials shape.
//
// Plus the shared-histogram contract: an accumulator handed a
// precomputed ScalarHistogram or SampledHistogram (the shard feed shares
// one of each per attacked instance) saves exactly the state of one that
// ran the pass itself;
// and the hoisted validation contract: an out-of-range plaintext
// anywhere in a block throws InvalidArgument before any state mutates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sboxes.hpp"
#include "dpa/block_stats.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/second_order.hpp"
#include "dpa/streaming.hpp"
#include "dpa_reference.hpp"
#include "io/serial.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

// Deterministic trace material: plaintexts below `num_pts`, rows of
// `width` samples at campaign-realistic magnitude (~1e-13 J) so the
// test exercises the same cancellation regime the shift-by-first-sample
// trick exists for.
struct TraceSet {
  std::vector<std::uint8_t> pts;
  std::vector<double> rows;  // [trace * width + column]
  std::size_t width;
};

TraceSet make_traces(std::size_t count, std::size_t num_pts,
                     std::size_t width, std::uint64_t seed) {
  TraceSet t;
  t.width = width;
  t.pts.resize(count);
  t.rows.resize(count * width);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    t.pts[i] = static_cast<std::uint8_t>(rng.below(num_pts));
    for (std::size_t l = 0; l < width; ++l) {
      // A large common-mode offset plus a tiny per-trace wiggle: the
      // worst case for raw-moment cancellation.
      t.rows[i * width + l] = 1e-13 + 1e-15 * rng.uniform();
    }
  }
  return t;
}

// Ragged block split (non-power-of-2, uneven) — the engine's shard
// layout is the block layout, and tails are the norm.
constexpr std::size_t kBlockSizes[] = {448, 448, 131};
constexpr std::size_t kTotal = 448 + 448 + 131;

template <typename Feed>
void for_each_block(const TraceSet& t, const Feed& feed) {
  std::size_t off = 0;
  for (const std::size_t n : kBlockSizes) {
    feed(t.pts.data() + off, t.rows.data() + off * t.width, n);
    off += n;
  }
  ASSERT_EQ(off, t.pts.size());
}

void expect_near_scores(const std::vector<double>& block,
                        const std::vector<double>& per_trace) {
  ASSERT_EQ(block.size(), per_trace.size());
  for (std::size_t g = 0; g < block.size(); ++g) {
    EXPECT_NEAR(block[g], per_trace[g], 1e-12) << "guess " << g;
  }
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[g]),
              std::bit_cast<std::uint64_t>(b[g]))
        << "guess " << g;
  }
}

std::vector<std::uint8_t> saved_bytes(const auto& acc) {
  ByteWriter writer;
  acc.save(writer);
  return writer.buffer();
}

// ---- equivalence: block path vs the two-pass oracle -----------------------

TEST(BlockStatsTest, CpaBlockPathMatchesOracle4Bit) {
  const TraceSet t = make_traces(kTotal, 16, 1, 0xB10C);
  StreamingCpa block(present_spec(), PowerModel::kHammingWeight);
  for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                        std::size_t n) { block.add_block(pts, rows, n); });
  EXPECT_EQ(block.count(), kTotal);
  expect_near_scores(block.result().score,
                     reference::cpa_scores(t.pts, t.rows, present_spec(),
                                           PowerModel::kHammingWeight));
}

TEST(BlockStatsTest, CpaBlockPathMatchesOracle8Bit) {
  // 8-bit sbox: 256 plaintext classes over ~1000 traces — sparse
  // histogram rows, many zero-count classes, the skip branch exercised.
  const TraceSet t = make_traces(kTotal, 256, 1, 0xAE5);
  StreamingCpa block(aes_spec(), PowerModel::kHammingWeight);
  for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                        std::size_t n) { block.add_block(pts, rows, n); });
  expect_near_scores(block.result().score,
                     reference::cpa_scores(t.pts, t.rows, aes_spec(),
                                           PowerModel::kHammingWeight));
}

TEST(BlockStatsTest, DomBlockPathMatchesOracle) {
  const TraceSet t = make_traces(kTotal, 16, 1, 0xD0A1);
  StreamingDom block(present_spec(), 2);
  for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                        std::size_t n) { block.add_block(pts, rows, n); });
  EXPECT_EQ(block.count(), kTotal);
  // These DoM scores are ~1e-17 mean differences of ~1e-13 samples: the
  // oracle's raw partition sums cancel ~13 of their bits (~1e-11
  // relative), which the shifted sums keep, so the bound is relative to
  // the score scale.
  const std::vector<double> oracle =
      reference::dom_scores(t.pts, t.rows, present_spec(), 2);
  const std::vector<double> got = block.result().score;
  const double scale = *std::max_element(oracle.begin(), oracle.end());
  ASSERT_GT(scale, 0.0);
  for (std::size_t g = 0; g < oracle.size(); ++g) {
    EXPECT_NEAR(got[g], oracle[g], 1e-9 * scale) << "guess " << g;
  }
}

TEST(BlockStatsTest, MultiCpaBlockPathMatchesOracle) {
  constexpr std::size_t kWidth = 5;
  const TraceSet t = make_traces(kTotal, 16, kWidth, 0x3C0A);
  StreamingMultiCpa block(present_spec(), PowerModel::kHammingWeight,
                          kWidth);
  for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                        std::size_t n) { block.add_block(pts, rows, n); });
  EXPECT_EQ(block.count(), kTotal);
  MultiTraceSet resident;
  for (std::size_t i = 0; i < t.pts.size(); ++i) {
    resident.add(t.pts[i], t.rows.data() + i * kWidth, kWidth);
  }
  expect_near_scores(block.result().combined.score,
                     reference::multi_cpa_scores(
                         resident, present_spec(),
                         PowerModel::kHammingWeight));
}

// Time-resolved rows with a second-order leak: columns 0 and 1 share a
// per-trace common-mode wiggle whose sign follows the predicted leakage
// of `key`, so their centered product — and no single column — tracks
// the prediction. Every sample sits at ~1e-13 J with ~1e-15 J of
// variation, the cancellation regime shift-then-centre is for.
TraceSet make_second_order_traces(std::size_t count, const SboxSpec& spec,
                                  std::size_t width, std::uint8_t key,
                                  std::uint64_t seed) {
  const std::size_t num_pts = std::size_t{1} << spec.in_bits;
  TraceSet t = make_traces(count, num_pts, width, seed);
  Rng rng(seed ^ 0x2D0);
  for (std::size_t i = 0; i < count; ++i) {
    const double h =
        predict_leakage(spec, PowerModel::kHammingWeight, t.pts[i], key, 0);
    const double sign = h > 0.5 * static_cast<double>(spec.out_bits)
                            ? 1.0
                            : -1.0;
    const double z = 1e-15 * rng.gaussian();
    t.rows[i * width] += z;
    t.rows[i * width + 1] += sign * z;
  }
  return t;
}

MultiTraceSet resident_rows(const TraceSet& t) {
  MultiTraceSet resident;
  for (std::size_t i = 0; i < t.pts.size(); ++i) {
    resident.add(t.pts[i], t.rows.data() + i * t.width, t.width);
  }
  return resident;
}

StreamingSecondOrderCpa second_order_blocks(const TraceSet& t,
                                            const SboxSpec& spec) {
  StreamingSecondOrderCpa acc(spec, PowerModel::kHammingWeight);
  for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                        std::size_t n) {
    acc.add_block(pts, rows, n, t.width);
  });
  return acc;
}

TEST(BlockStatsTest, SecondOrderBlockPathMatchesOracle) {
  // A 4-bit and an 8-bit (256-guess, sparse-histogram) S-box, each at
  // the narrowest width (one pair) and at a width whose 36 pairs leave a
  // ragged tail at every vector width, over the ragged block split.
  constexpr std::uint8_t kKey = 0x5;
  for (const SboxSpec& spec : {present_spec(), aes_spec()}) {
    for (const std::size_t width : {std::size_t{2}, std::size_t{9}}) {
      const std::string where =
          "guesses " + std::to_string(std::size_t{1} << spec.in_bits) +
          " width " + std::to_string(width);
      const TraceSet t =
          make_second_order_traces(kTotal, spec, width, kKey, 0x2B10 + width);
      const StreamingSecondOrderCpa acc = second_order_blocks(t, spec);
      EXPECT_EQ(acc.count(), kTotal) << where;
      const SecondOrderAttackResult got = acc.result();
      const SecondOrderAttackResult want = reference::second_order_cpa(
          resident_rows(t), spec, PowerModel::kHammingWeight);
      ASSERT_EQ(got.combined.score.size(), want.combined.score.size());
      for (std::size_t g = 0; g < want.combined.score.size(); ++g) {
        EXPECT_NEAR(got.combined.score[g], want.combined.score[g], 1e-12)
            << where << " guess " << g;
      }
      EXPECT_EQ(got.best_pair_first, want.best_pair_first) << where;
      EXPECT_EQ(got.best_pair_second, want.best_pair_second) << where;
      EXPECT_EQ(got.combined.rank_of(kKey), want.combined.rank_of(kKey))
          << where;
    }
  }
}

// ---- cross-tier bit-identity ----------------------------------------------

std::vector<DispatchTier> testable_tiers() {
  std::vector<DispatchTier> tiers = {DispatchTier::kPortable};
  if (active_tier() >= DispatchTier::kAvx2) tiers.push_back(DispatchTier::kAvx2);
  if (active_tier() >= DispatchTier::kAvx512) {
    tiers.push_back(DispatchTier::kAvx512);
  }
  return tiers;
}

TEST(BlockStatsTest, CpaBitIdenticalAcrossDispatchTiers) {
  const TraceSet t = make_traces(kTotal, 16, 1, 0x71E5);
  std::vector<std::uint8_t> reference;
  for (const DispatchTier tier : testable_tiers()) {
    ScopedDispatchTierCap cap(tier);
    StreamingCpa acc(present_spec(), PowerModel::kHammingWeight);
    for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                          std::size_t n) { acc.add_block(pts, rows, n); });
    const std::vector<std::uint8_t> bytes = saved_bytes(acc);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
    }
  }
}

// The row widths the engine produces (PRESENT rounds have 6 levels, AES
// rounds 20) and the edges of the sampled kernels' 8-level blocks: one
// pair, one whole block, one level past it.
constexpr std::size_t kTierWidths[] = {2, 6, 8, 9, 20};

// A block split whose blocks end off the kernels' 64-trace tiles: a
// one-trace block, a ragged tile tail, a block shorter than a tile.
constexpr std::size_t kTileBlockSizes[] = {1, 450, 61, 516};
constexpr std::size_t kTileTotal = 1 + 450 + 61 + 516;

template <typename Feed>
void for_each_tile_block(const TraceSet& t, const Feed& feed) {
  std::size_t off = 0;
  for (const std::size_t n : kTileBlockSizes) {
    feed(t.pts.data() + off, t.rows.data() + off * t.width, n);
    off += n;
  }
  ASSERT_EQ(off, t.pts.size());
}

TEST(BlockStatsTest, MultiCpaBitIdenticalAcrossDispatchTiers) {
  for (const std::size_t width : kTierWidths) {
    SCOPED_TRACE("width " + std::to_string(width));
    const TraceSet t = make_traces(kTileTotal, 16, width, 0x71E6 + width);
    std::vector<std::uint8_t> reference;
    for (const DispatchTier tier : testable_tiers()) {
      ScopedDispatchTierCap cap(tier);
      StreamingMultiCpa acc(present_spec(), PowerModel::kHammingWeight,
                            width);
      for_each_tile_block(t, [&](const std::uint8_t* pts, const double* rows,
                                 std::size_t n) {
        acc.add_block(pts, rows, n);
      });
      const std::vector<std::uint8_t> bytes = saved_bytes(acc);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
      }
    }
  }
}

TEST(BlockStatsTest, SecondOrderBitIdenticalAcrossDispatchTiers) {
  for (const std::size_t width : kTierWidths) {
    SCOPED_TRACE("width " + std::to_string(width));
    const TraceSet t = make_second_order_traces(kTileTotal, present_spec(),
                                                width, 0x3, 0x71E7 + width);
    std::vector<std::uint8_t> reference;
    for (const DispatchTier tier : testable_tiers()) {
      ScopedDispatchTierCap cap(tier);
      StreamingSecondOrderCpa acc(present_spec(), PowerModel::kHammingWeight);
      for_each_tile_block(t, [&](const std::uint8_t* pts, const double* rows,
                                 std::size_t n) {
        acc.add_block(pts, rows, n, width);
      });
      const std::vector<std::uint8_t> bytes = saved_bytes(acc);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
      }
    }
  }
}

TEST(BlockStatsTest, RawKernelsBitIdenticalAcrossDispatchTiers) {
  // Below the accumulators: the dispatched kernel table itself. The
  // sampled and pair passes must equal the per-trace reference loops
  // (dpa_reference.hpp) bit for bit at every tier, and the contraction
  // outputs must agree bitwise across tiers — the instantiations differ
  // only in codegen, never in arithmetic shape. The row buffers hold
  // exactly count·width doubles, so a kernel reading past them shows
  // under ASan.
  constexpr std::size_t kPts = 16;
  constexpr std::size_t kGuesses = 16;
  std::vector<double> pred(kPts * kGuesses);
  std::vector<std::uint8_t> pred_bit(kPts * kGuesses);
  Rng rng(0xBEEF);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    pred[i] = static_cast<double>(rng.below(9));
    pred_bit[i] = static_cast<std::uint8_t>(rng.below(2));
  }

  struct Outputs {
    std::vector<std::uint64_t> counts;
    std::vector<double> sums, sum_sq, sum_h, sum_h2, r, sum0, sum1;
    std::vector<std::uint64_t> cnt0, cnt1;
    std::vector<double> bins, pair_sq, m3_iij, m3_ijj, m4;
  };
  for (const std::size_t width : kTierWidths) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{70},
                                    std::size_t{700}}) {
      SCOPED_TRACE("width " + std::to_string(width) + " count " +
                   std::to_string(count));
      const TraceSet t =
          make_traces(count, kPts, width, 0xFACE + 7 * width + count);
      const std::size_t pairs = width * (width - 1) / 2;
      std::vector<double> shifts(t.rows.begin(),
                                 t.rows.begin() +
                                     static_cast<std::ptrdiff_t>(width));
      std::vector<double> centre(width);
      for (std::size_t l = 0; l < width; ++l) {
        centre[l] = 1e-16 * (static_cast<double>(l % 5) - 2.0);
      }
      auto sized = [&] {
        Outputs o;
        o.counts.resize(detail::kBlockPts);
        o.sums.resize(detail::kBlockPts * width);
        o.sum_sq.resize(width);
        o.sum_h.resize(kGuesses);
        o.sum_h2.resize(kGuesses);
        o.r.resize(width * kGuesses);
        o.sum0.resize(kGuesses);
        o.sum1.resize(kGuesses);
        o.cnt0.resize(kGuesses);
        o.cnt1.resize(kGuesses);
        o.bins.resize(detail::kBlockPts * (width + pairs));
        o.pair_sq.resize(width);
        o.m3_iij.resize(pairs);
        o.m3_ijj.resize(pairs);
        o.m4.resize(pairs);
        return o;
      };
      auto run = [&](DispatchTier tier) {
        const BlockStatKernels& k = block_stat_kernels(tier);
        Outputs o = sized();
        std::vector<double> work(detail::sampled_work_size(width));
        k.histogram_sampled(t.pts.data(), t.rows.data(), count, width,
                            shifts.data(), o.counts.data(), o.sums.data(),
                            o.sum_sq.data(), work.data());
        k.contract_counts(pred.data(), o.counts.data(), kPts, kGuesses,
                          o.sum_h.data(), o.sum_h2.data());
        k.contract_sums(pred.data(), o.sums.data(), o.counts.data(), kPts,
                        width, kGuesses, o.r.data());
        k.contract_dom(pred_bit.data(), o.counts.data(), o.sums.data(),
                       kPts, kGuesses, o.sum0.data(), o.sum1.data(),
                       o.cnt0.data(), o.cnt1.data());
        work.assign(detail::pairs_work_size(width), 0.0);
        k.histogram_pairs(t.pts.data(), t.rows.data(), count, width,
                          shifts.data(), centre.data(), o.bins.data(),
                          o.pair_sq.data(), o.m3_iij.data(), o.m3_ijj.data(),
                          o.m4.data(), work.data());
        return o;
      };

      Outputs want = sized();
      reference::histogram_sampled(t.pts.data(), t.rows.data(), count, width,
                                   shifts.data(), want.counts.data(),
                                   want.sums.data(), want.sum_sq.data());
      reference::histogram_pairs(t.pts.data(), t.rows.data(), count, width,
                                 shifts.data(), centre.data(),
                                 want.bins.data(), want.pair_sq.data(),
                                 want.m3_iij.data(), want.m3_ijj.data(),
                                 want.m4.data());
      const Outputs ref = run(DispatchTier::kPortable);
      for (const DispatchTier tier : testable_tiers()) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
        const Outputs got = run(tier);
        EXPECT_EQ(got.counts, want.counts);
        expect_same_bits(got.sums, want.sums);
        expect_same_bits(got.sum_sq, want.sum_sq);
        expect_same_bits(got.bins, want.bins);
        expect_same_bits(got.pair_sq, want.pair_sq);
        expect_same_bits(got.m3_iij, want.m3_iij);
        expect_same_bits(got.m3_ijj, want.m3_ijj);
        expect_same_bits(got.m4, want.m4);
        EXPECT_EQ(got.cnt0, ref.cnt0);
        EXPECT_EQ(got.cnt1, ref.cnt1);
        expect_same_bits(got.sum_h, ref.sum_h);
        expect_same_bits(got.sum_h2, ref.sum_h2);
        expect_same_bits(got.r, ref.r);
        expect_same_bits(got.sum0, ref.sum0);
        expect_same_bits(got.sum1, ref.sum1);
      }
    }
  }
}

// The sampled sibling of the next test: the shard feed computes one
// SampledHistogram per attacked instance and shard, and MultiCpa and
// second-order CPA handed it must save exactly the bytes of accumulators
// that ran their own pass, on every dispatch tier, at a PRESENT and an
// AES round's level count. The blocks are a count-1 block, a block whose
// first row (the shift) is not its minimum, and a ragged plain one.
TEST(BlockStatsTest, SharedAndPrivateSampledHistogramsSaveIdenticalState) {
  const SboxSpec spec = present_spec();
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  struct Range {
    std::size_t start, count;
  };
  const Range blocks[] = {{0, 1}, {1, 300}, {301, 131}};
  constexpr std::size_t kTraces = 432;
  for (const std::size_t width : {std::size_t{6}, std::size_t{20}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    TraceSet t = make_second_order_traces(kTraces, spec, width, 0x9, 0x5A3 +
                                                                         width);
    for (std::size_t l = 0; l < width; ++l) {
      t.rows[1 * width + l] = 1e-13;
      t.rows[2 * width + l] = 1e-13 - 5e-15;  // below the block's shift
    }
    MultiCpaDistinguisher multi(spec, selector, width);
    SecondOrderCpaDistinguisher second(spec, selector);
    const Distinguisher* const list[] = {&multi, &second};
    std::vector<std::vector<std::uint8_t>> reference(2);
    for (const DispatchTier tier : testable_tiers()) {
      SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
      ScopedDispatchTierCap cap(tier);
      for (std::size_t d = 0; d < 2; ++d) {
        const auto shared = list[d]->make_shard_accumulator();
        const auto own = list[d]->make_shard_accumulator();
        for (const Range& range : blocks) {
          SampledHistogram histogram;
          histogram.compute(t.pts.data() + range.start,
                            t.rows.data() + range.start * width, range.count,
                            width);
          ShardBlock block;
          block.start = range.start;
          block.sub_pts = t.pts.data() + range.start;
          block.data = t.rows.data() + range.start * width;
          block.count = range.count;
          block.width = width;
          block.sampled_histogram = &histogram;
          shared->accumulate(block);
          block.sampled_histogram = nullptr;
          own->accumulate(block);
        }
        const std::vector<std::uint8_t> bytes = saved_bytes(*shared);
        EXPECT_EQ(bytes, saved_bytes(*own)) << "distinguisher " << d;
        if (reference[d].empty()) reference[d] = bytes;
        EXPECT_EQ(bytes, reference[d]) << "distinguisher " << d;
      }
    }
  }
}

// The shard feed computes one ScalarHistogram per attacked instance and
// shard and hands it to every scalar accumulator of the instance. Fed the
// same blocks, an accumulator given that histogram must save exactly the
// bytes of one left to run the pass itself, on every dispatch tier. The
// blocks are a count-1 block, a block whose first sample (the shift) is
// not its minimum, and a plain one; the MTD ladder splits the second
// block inside and ends it on a checkpoint, and leaves the other two
// whole, so MTD takes both the shared and the private path.
TEST(BlockStatsTest, SharedAndPrivateHistogramsSaveIdenticalState) {
  const SboxSpec spec = present_spec();
  const AttackSelector selector{.model = PowerModel::kHammingWeight,
                                .bit = 1};
  constexpr std::size_t kTraces = 401;
  const std::vector<std::size_t> ladder = {151, 301};
  struct Range {
    std::size_t start, count;
  };
  const Range blocks[] = {{0, 1}, {1, 300}, {301, 100}};

  Rng rng(0x4157);
  std::vector<std::uint8_t> pts(kTraces);
  std::vector<double> samples(kTraces);
  for (std::size_t i = 0; i < kTraces; ++i) {
    pts[i] = static_cast<std::uint8_t>(rng.below(16));
    samples[i] = 1e-13 + 1e-15 * rng.gaussian();
  }
  samples[1] = 1e-13;
  samples[2] = samples[1] - 5e-15;  // below the second block's shift
  ASSERT_GT(samples[1], *std::min_element(samples.begin() + 1,
                                          samples.begin() + 301));

  CpaDistinguisher cpa(spec, selector);
  DomDistinguisher dom(spec, selector);
  MtdDistinguisher mtd(spec, selector, 0x7, ladder, kTraces);
  const Distinguisher* const list[] = {&cpa, &dom, &mtd};
  std::vector<std::vector<std::uint8_t>> reference(3);
  for (const DispatchTier tier : testable_tiers()) {
    SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
    ScopedDispatchTierCap cap(tier);
    for (std::size_t d = 0; d < 3; ++d) {
      const auto shared = list[d]->make_shard_accumulator();
      const auto own = list[d]->make_shard_accumulator();
      for (const Range& range : blocks) {
        ScalarHistogram histogram;
        histogram.compute(pts.data() + range.start,
                          samples.data() + range.start, range.count);
        ShardBlock block;
        block.start = range.start;
        block.sub_pts = pts.data() + range.start;
        block.data = samples.data() + range.start;
        block.count = range.count;
        block.histogram = &histogram;
        shared->accumulate(block);
        block.histogram = nullptr;
        own->accumulate(block);
      }
      const std::vector<std::uint8_t> bytes = saved_bytes(*shared);
      EXPECT_EQ(bytes, saved_bytes(*own)) << "distinguisher " << d;
      if (reference[d].empty()) reference[d] = bytes;
      EXPECT_EQ(bytes, reference[d]) << "distinguisher " << d;
    }
  }
}

// ---- persistence: save -> load -> accumulate-more / merge -----------------
//
// The checkpoint/resume shape: an accumulator saved after blocks 0..1,
// loaded into a fresh process, fed block 2 (resume) OR merged with a
// partial that only ever saw block 2 (merge_partials), must re-save
// byte-identically to one that consumed all three blocks in sequence.
// That works because a single-block accumulator's state IS the block's
// converted Welford statistics, and merge() routes through the same
// fold as add_block.

template <typename Acc, typename Make>
void check_persistence_shape(const TraceSet& t, const Make& make) {
  // Straight-through: all blocks, one accumulator.
  Acc straight = make();
  for_each_block(t, [&](const std::uint8_t* pts, const double* rows,
                        std::size_t n) { straight.add_block(pts, rows, n); });
  const std::vector<std::uint8_t> want = saved_bytes(straight);

  // Checkpoint after the first two blocks.
  Acc partial = make();
  std::size_t off = 0;
  for (std::size_t b = 0; b < 2; ++b) {
    partial.add_block(t.pts.data() + off, t.rows.data() + off * t.width,
                      kBlockSizes[b]);
    off += kBlockSizes[b];
  }
  const std::vector<std::uint8_t> checkpoint = saved_bytes(partial);

  // Resume path: load the checkpoint, feed the remaining block.
  Acc resumed = make();
  {
    ByteReader reader(checkpoint.data(), checkpoint.size(), "mem");
    resumed.load(reader);
    EXPECT_EQ(reader.remaining(), 0u);
  }
  resumed.add_block(t.pts.data() + off, t.rows.data() + off * t.width,
                    kBlockSizes[2]);
  EXPECT_EQ(saved_bytes(resumed), want) << "resume path diverged";

  // Merge path: a second worker only ever saw block 2; fold its state
  // into the loaded checkpoint (merge_partials in miniature).
  Acc tail = make();
  tail.add_block(t.pts.data() + off, t.rows.data() + off * t.width,
                 kBlockSizes[2]);
  Acc merged = make();
  {
    ByteReader reader(checkpoint.data(), checkpoint.size(), "mem");
    merged.load(reader);
  }
  merged.merge(tail);
  EXPECT_EQ(saved_bytes(merged), want) << "merge path diverged";
}

TEST(BlockStatsTest, CpaSaveLoadAccumulateMergeMatchesStraightThrough) {
  const TraceSet t = make_traces(kTotal, 16, 1, 0x5A7E);
  check_persistence_shape<StreamingCpa>(t, [] {
    return StreamingCpa(present_spec(), PowerModel::kHammingWeight);
  });
}

TEST(BlockStatsTest, DomSaveLoadAccumulateMergeMatchesStraightThrough) {
  const TraceSet t = make_traces(kTotal, 16, 1, 0x5A7F);
  check_persistence_shape<StreamingDom>(
      t, [] { return StreamingDom(present_spec(), 1); });
}

TEST(BlockStatsTest, MultiCpaSaveLoadAccumulateMergeMatchesStraightThrough) {
  constexpr std::size_t kWidth = 4;
  const TraceSet t = make_traces(kTotal, 16, kWidth, 0x5A80);
  check_persistence_shape<StreamingMultiCpa>(t, [] {
    return StreamingMultiCpa(present_spec(), PowerModel::kHammingWeight,
                             kWidth);
  });
}

// ---- hoisted validation ---------------------------------------------------

TEST(BlockStatsTest, OutOfRangePlaintextThrowsBeforeMutating) {
  // Validation happens once per block, after the histogram pass but
  // before any statistic folds in: a bad plaintext anywhere in the
  // block throws and leaves the accumulator untouched.
  TraceSet t = make_traces(64, 16, 1, 0xBAD);
  t.pts[37] = 200;  // >= present's 16 plaintext classes

  StreamingCpa cpa(present_spec(), PowerModel::kHammingWeight);
  EXPECT_THROW(cpa.add_block(t.pts.data(), t.rows.data(), t.pts.size()),
               InvalidArgument);
  EXPECT_EQ(cpa.count(), 0u);

  StreamingDom dom(present_spec(), 0);
  EXPECT_THROW(dom.add_block(t.pts.data(), t.rows.data(), t.pts.size()),
               InvalidArgument);
  EXPECT_EQ(dom.count(), 0u);

  StreamingMultiCpa multi(present_spec(), PowerModel::kHammingWeight, 1);
  EXPECT_THROW(multi.add_block(t.pts.data(), t.rows.data(), t.pts.size()),
               InvalidArgument);
  EXPECT_EQ(multi.count(), 0u);

  // Second order, both before its width is fixed and after a good block:
  // the serialized state must not move at all.
  constexpr std::size_t kWidth = 3;
  TraceSet rows = make_traces(64, 16, kWidth, 0xBAE);
  StreamingSecondOrderCpa second(present_spec(), PowerModel::kHammingWeight);
  for (int fed = 0; fed < 2; ++fed) {
    rows.pts[37] = 200;
    const std::vector<std::uint8_t> before = saved_bytes(second);
    EXPECT_THROW(second.add_block(rows.pts.data(), rows.rows.data(),
                                  rows.pts.size(), kWidth),
                 InvalidArgument);
    EXPECT_EQ(saved_bytes(second), before) << "blocks fed " << fed;
    rows.pts[37] = 7;
    second.add_block(rows.pts.data(), rows.rows.data(), rows.pts.size(),
                     kWidth);
  }
  EXPECT_EQ(second.count(), 2 * rows.pts.size());
}

}  // namespace
}  // namespace sable
