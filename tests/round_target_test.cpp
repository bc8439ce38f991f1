// Round targets and kernels: N S-boxes side by side with summed power.
//
// Under test: the packed-state layout (nibble packing for 4-bit S-boxes,
// heterogeneous widths), per-instance functional correctness, summed
// power against the single-S-box targets, per-subkey attack selection,
// algorithmic-noise MTD monotonicity, the time-resolved multi-sample CPA
// campaign against the retained-trace multisample attack, and the
// table-gathered batch path against the per-lane simulator kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/target.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "lane_reference.hpp"
#include "retained_campaign.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(RoundSpecTest, PackedStateLayout) {
  // 16 PRESENT nibbles pack into 8 bytes; mixed widths pack LSB-first.
  const RoundSpec present16 = present_round(16, LogicStyle::kStaticCmos);
  EXPECT_EQ(present16.state_bits(), 64u);
  EXPECT_EQ(present16.state_bytes(), 8u);
  EXPECT_EQ(present16.bit_offset(3), 12u);

  RoundSpec mixed;
  mixed.sboxes = {present_spec(), des1_spec(), aes_spec()};
  mixed.style = LogicStyle::kStaticCmos;
  EXPECT_EQ(mixed.state_bits(), 4u + 6u + 8u);
  EXPECT_EQ(mixed.state_bytes(), 3u);

  // Round-trip every instance through set_sub_word / sub_word.
  std::vector<std::uint8_t> state(mixed.state_bytes(), 0);
  mixed.set_sub_word(state.data(), 0, 0xA);
  mixed.set_sub_word(state.data(), 1, 0x2B);
  mixed.set_sub_word(state.data(), 2, 0xC4);
  EXPECT_EQ(mixed.sub_word(state.data(), 0), 0xAu);
  EXPECT_EQ(mixed.sub_word(state.data(), 1), 0x2Bu);
  EXPECT_EQ(mixed.sub_word(state.data(), 2), 0xC4u);
  // Nibble packing: instance 0 is the low nibble, instance 1 straddles
  // the byte boundary.
  EXPECT_EQ(state[0], 0xA | ((0x2B & 0xF) << 4));

  // Overwriting one sub-word leaves the neighbours intact.
  mixed.set_sub_word(state.data(), 1, 0x15);
  EXPECT_EQ(mixed.sub_word(state.data(), 0), 0xAu);
  EXPECT_EQ(mixed.sub_word(state.data(), 1), 0x15u);
  EXPECT_EQ(mixed.sub_word(state.data(), 2), 0xC4u);

  const std::vector<std::uint8_t> packed =
      mixed.pack_subkeys({0x7, 0x3F, 0x80});
  EXPECT_EQ(mixed.sub_word(packed.data(), 0), 0x7u);
  EXPECT_EQ(mixed.sub_word(packed.data(), 1), 0x3Fu);
  EXPECT_EQ(mixed.sub_word(packed.data(), 2), 0x80u);
  EXPECT_THROW(mixed.pack_subkeys({0x7, 0x3F}), InvalidArgument);
  EXPECT_THROW(mixed.set_sub_word(state.data(), 0, 0x10), InvalidArgument);

  // Batch extraction matches sub_word on random states, for in-byte
  // instances (shifted nibbles) and byte-straddling ones (the mixed
  // round's 6- and 8-bit instances) alike, over a ragged count.
  for (const RoundSpec& round : {present16, mixed}) {
    const std::size_t count = 131;
    const std::size_t stride = round.state_bytes();
    std::vector<std::uint8_t> states(count * stride);
    Rng rng(0x5B);
    round.fill_random_states(rng, count, states.data());
    std::vector<std::uint8_t> out(count);
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      round.sub_words(states.data(), count, i, out.data());
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(out[t], round.sub_word(states.data() + t * stride, i))
            << "instance " << i << " state " << t;
      }
    }
  }
}

TEST(RoundKernelTest, EveryInstanceComputesItsReferenceSbox) {
  // Heterogeneous round: each instance's synthesized circuit must realize
  // its own S-box table, independent of the neighbours.
  RoundSpec round;
  round.sboxes = {present_spec(), des1_spec(), present_spec()};
  round.style = LogicStyle::kSablFullyConnected;
  RoundKernel kernel(round, kTech);
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << spec.in_bits); ++x) {
      EXPECT_EQ(evaluate_circuit(kernel.circuit(i), x),
                spec.apply(static_cast<std::uint8_t>(x)))
          << "instance " << i << " input " << x;
    }
  }
  // reference() applies the per-instance subkey of the packed round key.
  const std::vector<std::uint8_t> key = round.pack_subkeys({0x3, 0x2A, 0xC});
  std::vector<std::uint8_t> pt(round.state_bytes(), 0);
  round.set_sub_word(pt.data(), 0, 0x9);
  round.set_sub_word(pt.data(), 1, 0x11);
  round.set_sub_word(pt.data(), 2, 0x5);
  EXPECT_EQ(kernel.reference(0, pt.data(), key.data()),
            present_sbox(0x9 ^ 0x3));
  EXPECT_EQ(kernel.reference(1, pt.data(), key.data()),
            des_sbox1(0x11 ^ 0x2A));
  EXPECT_EQ(kernel.reference(2, pt.data(), key.data()),
            present_sbox(0x5 ^ 0xC));
}

TEST(RoundKernelTest, SummedPowerEqualsSumOfSingleTargets) {
  // History-free style: the round's power sample must equal the sum of
  // independent single-S-box targets fed the matching sub-words.
  RoundSpec round;
  round.sboxes = {present_spec(), des1_spec()};
  round.style = LogicStyle::kSablFullyConnected;
  RoundKernel kernel(round, kTech);
  SboxTarget a(present_spec(), LogicStyle::kSablFullyConnected, kTech);
  SboxTarget b(des1_spec(), LogicStyle::kSablFullyConnected, kTech);
  const std::vector<std::uint8_t> key = round.pack_subkeys({0x6, 0x19});
  Rng pts(0x1234);
  Rng no_noise(0);
  std::vector<std::uint8_t> state(round.state_bytes(), 0);
  for (int i = 0; i < 100; ++i) {
    const auto pa = static_cast<std::uint8_t>(pts.below(16));
    const auto pb = static_cast<std::uint8_t>(pts.below(64));
    round.set_sub_word(state.data(), 0, pa);
    round.set_sub_word(state.data(), 1, pb);
    const double summed = kernel.trace(state.data(), key.data(), 0.0,
                                       no_noise);
    const double expected = a.trace(pa, 0x6, 0.0, no_noise) +
                            b.trace(pb, 0x19, 0.0, no_noise);
    EXPECT_DOUBLE_EQ(summed, expected) << i;
  }
}

std::vector<LogicStyle> all_styles() {
  return {LogicStyle::kStaticCmos,         LogicStyle::kSablGenuine,
          LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
          LogicStyle::kWddlBalanced,       LogicStyle::kWddlMismatched};
}

TEST(RoundGatherTest, BatchedRoundTracesMatchScalar) {
  // The batch path gathers from energy tables; lane L of it must track a
  // scalar kernel target fed every 64th wide plaintext (CMOS carries
  // per-lane history). Two consecutive ragged calls without a reset: the
  // history must cross the call boundary and the 131 = 2*64 + 3 tail,
  // where lanes 3..63 keep the state of the first call's second step.
  // Then reset_state() must return every lane to fresh.
  const std::size_t count = 131;
  for (LogicStyle style : all_styles()) {
    for (const RoundSpec& round : table_test_rounds(style)) {
      const std::string where = std::string(to_string(style)) + " n " +
                                std::to_string(round.num_sboxes()) + " bits " +
                                std::to_string(round.state_bits());
      // Both batch paths advance the lane history, so each gets a target.
      RoundTarget batch(round, kTech);
      RoundTarget batch_sampled = batch.clone();
      LaneReference reference(batch.kernel());
      const std::size_t stride = round.state_bytes();
      const std::size_t width = batch.num_levels();
      std::vector<std::uint8_t> key(stride, 0xA5);
      Rng pt_rng(0x7AB1E);
      Rng no_noise(0);
      std::vector<double> out(count);
      std::vector<double> rows(count * width);
      std::vector<std::uint8_t> first_pts;
      for (int call = 0; call < 2; ++call) {
        std::vector<std::uint8_t> pts(count * stride);
        round.fill_random_states(pt_rng, count, pts.data());
        if (call == 0) first_pts = pts;
        batch.trace_batch(pts.data(), count, key.data(), 0.0, no_noise,
                          out.data());
        batch_sampled.trace_batch_sampled(pts.data(), count, key.data(), 0.0,
                                          no_noise, rows.data());
        const std::vector<double> expected =
            reference.scalar(pts.data(), count, key.data());
        const std::vector<double> expected_rows =
            reference.sampled(pts.data(), count, key.data());
        for (std::size_t t = 0; t < count; ++t) {
          ASSERT_EQ(out[t], expected[t])
              << where << " call " << call << " trace " << t;
        }
        for (std::size_t i = 0; i < count * width; ++i) {
          ASSERT_EQ(rows[i], expected_rows[i])
              << where << " call " << call << " row entry " << i;
        }
      }
      batch.reset_state();
      batch.trace_batch(first_pts.data(), count, key.data(), 0.0, no_noise,
                        out.data());
      LaneReference fresh(batch.kernel());
      const std::vector<double> expected =
          fresh.scalar(first_pts.data(), count, key.data());
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(out[t], expected[t]) << where << " after reset, trace " << t;
      }
    }
  }
}

TEST(RoundEngineTest, ConcurrentFirstUseBuildsEachTableOnce) {
  // A fresh engine's first campaign: four workers reach the shared,
  // not-yet-built tables of a 16-S-box round at once, so every table
  // build races its once_flag (the ThreadSanitizer job runs this).
  // The traces must match a one-thread engine's.
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kWddlMismatched}) {
    const RoundSpec round = present_round(16, style);
    CampaignOptions options;
    options.num_traces = 2048;
    options.key = round.pack_subkeys(std::vector<std::size_t>(16, 0x9));
    options.noise_sigma = 1e-16;
    options.seed = 0xF1257;
    options.shard_size = 128;
    options.num_threads = 4;
    TraceEngine threaded(round, kTech);
    const TraceSet traces = retained_campaign(threaded, options);
    std::vector<double> rows;
    threaded.stream_sampled(options, [&](const std::uint8_t*,
                                         const double* r, std::size_t n) {
      rows.insert(rows.end(), r, r + n * threaded.target().num_levels());
    });
    options.num_threads = 1;
    TraceEngine serial(round, kTech);
    const TraceSet expected = retained_campaign(serial, options);
    std::vector<double> expected_rows;
    serial.stream_sampled(options, [&](const std::uint8_t*, const double* r,
                                       std::size_t n) {
      expected_rows.insert(expected_rows.end(), r,
                           r + n * serial.target().num_levels());
    });
    EXPECT_EQ(traces.samples, expected.samples) << to_string(style);
    EXPECT_EQ(rows, expected_rows) << to_string(style);
  }
}

TEST(RoundEngineTest, CpaCampaignRecoversTheSelectedSubkey) {
  // Four PRESENT instances with distinct subkeys: attacking instance i
  // must recover subkey i — not any neighbour's — through 3 instances'
  // worth of algorithmic noise.
  const RoundSpec round = present_round(4, LogicStyle::kStaticCmos);
  const std::vector<std::size_t> subkeys = {0x3, 0xE, 0x8, 0x6};
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 6000;
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 1e-16;
  options.seed = 0x40D;
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const AttackSelector selector{.sbox_index = i,
                                  .model = PowerModel::kHammingWeight};
    const AttackResult result =
        engine.attack(options, CpaDistinguisher(engine.spec(i), selector));
    EXPECT_EQ(result.score.size(), 16u);
    EXPECT_EQ(result.best_guess, subkeys[i]) << "attacked instance " << i;
  }
}

TEST(RoundEngineTest, AlgorithmicNoiseGrowsMtdWithRoundSize) {
  // The neighbours' switching is algorithmic noise: disclosing the same
  // subkey must take more traces the more instances surround it.
  std::vector<std::size_t> mtds;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const RoundSpec round = present_round(n, LogicStyle::kStaticCmos);
    std::vector<std::size_t> subkeys(n);
    for (std::size_t j = 0; j < n; ++j) subkeys[j] = (0xB + 5 * j) & 0xF;
    TraceEngine engine(round, kTech);
    CampaignOptions options;
    options.num_traces = 20000;
    options.key = round.pack_subkeys(subkeys);
    options.noise_sigma = 2e-16;
    options.seed = 0x3D7;
    const MtdResult mtd = engine.attack(
        options,
        MtdDistinguisher(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight},
                         round.sub_word(options.key.data(), 0),
                         default_checkpoints(options.num_traces),
                         options.num_traces));
    ASSERT_TRUE(mtd.disclosed) << "round size " << n;
    mtds.push_back(mtd.mtd);
  }
  EXPECT_LE(mtds[0], mtds[1]);
  EXPECT_LE(mtds[1], mtds[2]);
  EXPECT_LT(mtds[0], mtds[2]);
}

TEST(RoundEngineTest, MultiCpaCampaignMatchesRetainedMultisampleAttack) {
  // The time-resolved sharded campaign must agree with the batch
  // multisample attack over the identical retained traces to 1e-12.
  const RoundSpec round = present_round(3, LogicStyle::kSablGenuine);
  const std::vector<std::size_t> subkeys = {0x9, 0x4, 0xD};
  const AttackSelector selector{.sbox_index = 1,
                                .model = PowerModel::kHammingWeight};
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 1e-16;
  options.seed = 0x3117;
  options.shard_size = 448;  // several shards, one partial tail

  TraceEngine engine(round, kTech);
  const MultiAttackResult streamed =
      engine.attack(options, MultiCpaDistinguisher(
                                 engine.spec(selector.sbox_index), selector,
                                 engine.target().num_levels()));

  // Retain the same campaign via stream_sampled and run the batch attack
  // on the attacked instance's sub-plaintexts.
  TraceEngine engine2(round, kTech);
  const std::size_t width = engine2.target().num_levels();
  ASSERT_GT(width, 1u);
  MultiTraceSet retained;
  retained.reserve(options.num_traces, width);
  std::vector<std::uint8_t> sub_pts(campaign_shard_size(options));
  engine2.stream_sampled(
      options, [&](const std::uint8_t* pts, const double* rows,
                   std::size_t count) {
        round.sub_words(pts, count, selector.sbox_index, sub_pts.data());
        for (std::size_t t = 0; t < count; ++t) {
          retained.add(sub_pts[t], rows + t * width, width);
        }
      });
  ASSERT_EQ(retained.size(), options.num_traces);
  const MultiAttackResult batch = cpa_attack_multisample(
      retained, round.sboxes[selector.sbox_index], selector.model,
      selector.bit);

  ASSERT_EQ(streamed.combined.score.size(), batch.combined.score.size());
  for (std::size_t g = 0; g < batch.combined.score.size(); ++g) {
    EXPECT_NEAR(streamed.combined.score[g], batch.combined.score[g], 1e-12)
        << g;
  }
  EXPECT_EQ(streamed.combined.best_guess, batch.combined.best_guess);
  EXPECT_EQ(streamed.best_sample, batch.best_sample);
}

TEST(RoundEngineTest, StreamCarriesWideStates) {
  const RoundSpec round = present_round(5, LogicStyle::kSablFullyConnected);
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 300;
  options.key = round.pack_subkeys({1, 2, 3, 4, 5});
  options.noise_sigma = 1e-16;
  options.seed = 0xF00D;
  options.shard_size = 128;
  const TraceSet traces = retained_campaign(engine, options);
  EXPECT_EQ(traces.plaintexts.size(),
            options.num_traces * round.state_bytes());
  ASSERT_EQ(traces.size(), options.num_traces);

  // Another engine over the same round streams the same campaign.
  TraceEngine engine2(round, kTech);
  const TraceSet again = retained_campaign(engine2, options);
  EXPECT_EQ(again.plaintexts, traces.plaintexts);
  EXPECT_EQ(again.samples, traces.samples);

  // The campaign key must match the round's packed width.
  CampaignOptions bad = options;
  bad.key = {0x1};
  EXPECT_THROW(retained_campaign(engine, bad), InvalidArgument);
}

// Time-resolved campaigns cover the baseline style too: cycle_sampled on
// the CMOS batch sim feeds a MultiCpaDistinguisher, which must agree with the
// batch multisample attack over the identically retained traces — and the
// HD leak is strong enough that the oscilloscope-style attack recovers
// the subkey.
TEST(RoundEngineTest, MultiCpaCampaignCoversStaticCmos) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const std::vector<std::size_t> subkeys = {0xB, 0x4};
  const AttackSelector selector{.sbox_index = 0,
                                .model = PowerModel::kHammingWeight};
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 1e-16;
  options.seed = 0xC405;
  options.shard_size = 448;

  TraceEngine engine(round, kTech);
  ASSERT_GT(engine.target().num_levels(), 0u);
  const MultiAttackResult streamed =
      engine.attack(options, MultiCpaDistinguisher(
                                 engine.spec(selector.sbox_index), selector,
                                 engine.target().num_levels()));
  EXPECT_EQ(streamed.combined.best_guess, subkeys[0]);

  TraceEngine engine2(round, kTech);
  const std::size_t width = engine2.target().num_levels();
  MultiTraceSet retained;
  retained.reserve(options.num_traces, width);
  std::vector<std::uint8_t> sub_pts(campaign_shard_size(options));
  engine2.stream_sampled(
      options, [&](const std::uint8_t* pts, const double* rows,
                   std::size_t count) {
        round.sub_words(pts, count, selector.sbox_index, sub_pts.data());
        for (std::size_t t = 0; t < count; ++t) {
          retained.add(sub_pts[t], rows + t * width, width);
        }
      });
  ASSERT_EQ(retained.size(), options.num_traces);
  const MultiAttackResult batch = cpa_attack_multisample(
      retained, round.sboxes[selector.sbox_index], selector.model,
      selector.bit);
  ASSERT_EQ(streamed.combined.score.size(), batch.combined.score.size());
  for (std::size_t g = 0; g < batch.combined.score.size(); ++g) {
    EXPECT_NEAR(streamed.combined.score[g], batch.combined.score[g], 1e-12)
        << g;
  }
  EXPECT_EQ(streamed.best_sample, batch.best_sample);
}

}  // namespace
}  // namespace sable
