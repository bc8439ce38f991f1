// Thread-count and dispatch-tier invariance of the sharded TraceEngine
// and correctness of the mergeable streaming accumulators.
//
// The contract under test: a campaign is a fixed sequence of shards whose
// traces and accumulator merges depend only on the campaign options —
// never on the worker count or scheduling — so every result below must be
// bit-identical across num_threads ∈ {1, 2, 7, hardware_concurrency}; and
// merge() must agree with sequential accumulation to ~1e-12 relative.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "crypto/target.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/streaming.hpp"
#include "dpa_reference.hpp"
#include "engine/trace_engine.hpp"
#include "power/stats.hpp"
#include "retained_campaign.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

std::vector<std::size_t> thread_counts_under_test() {
  return {1, 2, 7,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

// Every dispatch tier; a cap above the machine's tier runs at the
// machine's.
std::vector<DispatchTier> tiers_under_test() {
  return {DispatchTier::kPortable, DispatchTier::kAvx2,
          DispatchTier::kAvx512};
}

// Multi-shard campaign: 3000 traces over 448-trace shards = 7 shards, one
// partial tail, so the merge path is genuinely exercised.
CampaignOptions sharded_options() {
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;
  return options;
}

TEST(EngineDeterminismTest, CmosCampaignIsBitIdenticalAcrossThreadCounts) {
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const TraceSet reference = retained_campaign(reference_engine, options);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const TraceSet traces = retained_campaign(engine, options);
    ASSERT_EQ(traces.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(traces.plaintexts[i], reference.plaintexts[i])
          << "threads " << threads << " trace " << i;
      ASSERT_EQ(traces.samples[i], reference.samples[i])
          << "threads " << threads << " trace " << i;
    }
  }
}

TEST(EngineDeterminismTest, StreamDeliversCanonicalOrderAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  TraceEngine reference_engine(present_spec(), LogicStyle::kSablGenuine,
                               kTech);
  const TraceSet reference = retained_campaign(reference_engine, options);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kSablGenuine, kTech);
    options.num_threads = threads;
    TraceSet collected;
    collected.reserve(options.num_traces);
    engine.stream(options,
                  [&](const std::uint8_t* pts, const double* samples,
                      std::size_t n) { collected.add_batch(pts, samples, n); });
    ASSERT_EQ(collected.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(collected.plaintexts[i], reference.plaintexts[i])
          << "threads " << threads << " trace " << i;
      ASSERT_EQ(collected.samples[i], reference.samples[i])
          << "threads " << threads << " trace " << i;
    }
  }
}

TEST(EngineDeterminismTest, CpaCampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  const AttackResult reference = reference_engine.attack(
      options, CpaDistinguisher(present_spec(), selector));
  EXPECT_EQ(reference.best_guess, options.key[0]);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const AttackResult result =
        engine.attack(options, CpaDistinguisher(present_spec(), selector));
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      // EXPECT_EQ on doubles is exact equality: bit-identical, not close.
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(result.best_guess, reference.best_guess) << threads;
    EXPECT_EQ(result.margin, reference.margin) << threads;
  }
}

TEST(EngineDeterminismTest, DomCampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  const AttackResult reference = reference_engine.attack(
      options, DomDistinguisher(present_spec(), AttackSelector{.bit = 0}));
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const AttackResult result = engine.attack(
        options, DomDistinguisher(present_spec(), AttackSelector{.bit = 0}));
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
  }
}

TEST(EngineDeterminismTest, MtdCampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const auto checkpoints = default_checkpoints(options.num_traces);
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const auto make_mtd = [&] {
    return MtdDistinguisher(
        present_spec(), selector,
        reference_engine.round().sub_word(options.key.data(), 0), checkpoints,
        options.num_traces);
  };
  const MtdResult reference = reference_engine.attack(options, make_mtd());
  EXPECT_TRUE(reference.disclosed);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const MtdResult result = engine.attack(options, make_mtd());
    EXPECT_EQ(result.disclosed, reference.disclosed) << threads;
    EXPECT_EQ(result.mtd, reference.mtd) << threads;
    ASSERT_EQ(result.rank_history.size(), reference.rank_history.size());
    for (std::size_t i = 0; i < reference.rank_history.size(); ++i) {
      EXPECT_EQ(result.rank_history[i], reference.rank_history[i])
          << "threads " << threads << " checkpoint " << i;
    }
  }
}

// ---- accumulator merges ---------------------------------------------------

TraceSet cmos_traces(std::size_t count, std::uint8_t key, std::uint64_t seed) {
  SboxTarget target(present_spec(), LogicStyle::kStaticCmos, kTech);
  Rng rng(seed);
  TraceSet traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    traces.add(pt, target.trace(pt, key, 2e-16, rng));
  }
  return traces;
}

TEST(MergeTest, OnlineMomentsMergeMatchesSequential) {
  Rng rng(0x9011);
  std::vector<double> xs(5000);
  // Trace-scale magnitudes: ~1e-13 with ~1e-15 variation, the regime the
  // merged co-moments must survive.
  for (auto& x : xs) x = 1e-13 + 1e-15 * rng.gaussian();
  OnlineMoments sequential;
  for (double x : xs) sequential.add(x);
  OnlineMoments merged;
  for (std::size_t start : {std::size_t{0}, std::size_t{1111},
                            std::size_t{1112}, std::size_t{4000}}) {
    // uneven, adjacent partitions
    const std::size_t end =
        start == 0 ? 1111 : start == 1111 ? 1112 : start == 1112 ? 4000 : 5000;
    OnlineMoments part;
    for (std::size_t i = start; i < end; ++i) part.add(xs[i]);
    merged.merge(part);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(),
              1e-12 * std::fabs(sequential.mean()));
  EXPECT_NEAR(merged.m2(), sequential.m2(),
              1e-12 * std::fabs(sequential.m2()));
}

TEST(MergeTest, StreamingCpaMergeMatchesSequential) {
  const SboxSpec spec = present_spec();
  const TraceSet traces = cmos_traces(4000, 0x6, 0xCAB1E);
  StreamingCpa merged(spec, PowerModel::kHammingWeight);
  const std::size_t bounds[] = {0, 700, 701, 2048, 4000};
  for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
    StreamingCpa part(spec, PowerModel::kHammingWeight);
    part.add_block(traces.plaintexts.data() + bounds[p],
                   traces.samples.data() + bounds[p],
                   bounds[p + 1] - bounds[p]);
    merged.merge(part);
  }
  EXPECT_EQ(merged.count(), traces.size());
  const AttackResult a = merged.result();
  const AttackResult b = make_attack_result(
      reference::cpa_scores(traces, spec, PowerModel::kHammingWeight));
  ASSERT_EQ(a.score.size(), b.score.size());
  for (std::size_t g = 0; g < b.score.size(); ++g) {
    EXPECT_NEAR(a.score[g], b.score[g], 1e-12) << g;
  }
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(MergeTest, StreamingDomMergeMatchesSequential) {
  const SboxSpec spec = present_spec();
  const TraceSet traces = cmos_traces(3000, 0x9, 0xD0D1);
  for (std::size_t bit = 0; bit < 2; ++bit) {
    StreamingDom merged(spec, bit);
    const std::size_t bounds[] = {0, 123, 2000, 3000};
    for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
      StreamingDom part(spec, bit);
      part.add_block(traces.plaintexts.data() + bounds[p],
                     traces.samples.data() + bounds[p],
                     bounds[p + 1] - bounds[p]);
      merged.merge(part);
    }
    EXPECT_EQ(merged.count(), traces.size());
    const AttackResult a = merged.result();
    const std::vector<double> b = reference::dom_scores(traces, spec, bit);
    // Relative to the score scale (~1e-15 J): the oracle's raw partition
    // sums cancel bits the shifted, rebased sums keep.
    const double scale = *std::max_element(b.begin(), b.end());
    for (std::size_t g = 0; g < b.size(); ++g) {
      EXPECT_NEAR(a.score[g], b[g], 1e-12 * scale) << g;
    }
  }
}

TEST(MergeTest, StreamingMultiCpaMergeMatchesSequential) {
  const SboxSpec spec = present_spec();
  SboxTarget target(spec, LogicStyle::kSablGenuine, kTech);
  DifferentialCircuitSim sim(target.circuit());
  Rng rng(0x3317);
  const std::uint8_t key = 0x4;
  MultiTraceSet traces;
  for (std::size_t i = 0; i < 1200; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    SampledCycleResult cycle =
        sim.cycle_sampled(static_cast<std::uint8_t>(pt ^ key));
    for (auto& v : cycle.level_energy) v += 1e-16 * rng.gaussian();
    traces.add(pt, cycle.level_energy);
  }
  StreamingMultiCpa sequential(spec, PowerModel::kHammingWeight,
                               traces.width);
  sequential.add_block(traces.plaintexts.data(), traces.samples.data(),
                       traces.size());
  StreamingMultiCpa merged(spec, PowerModel::kHammingWeight, traces.width);
  const std::size_t bounds[] = {0, 311, 900, 1200};
  for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
    StreamingMultiCpa part(spec, PowerModel::kHammingWeight, traces.width);
    part.add_block(traces.plaintexts.data() + bounds[p],
                   traces.samples.data() + bounds[p] * traces.width,
                   bounds[p + 1] - bounds[p]);
    merged.merge(part);
  }
  const MultiAttackResult a = merged.result();
  const std::vector<double> b =
      reference::multi_cpa_scores(traces, spec, PowerModel::kHammingWeight);
  ASSERT_EQ(a.combined.score.size(), b.size());
  for (std::size_t g = 0; g < b.size(); ++g) {
    EXPECT_NEAR(a.combined.score[g], b[g], 1e-12) << g;
  }
  EXPECT_EQ(a.best_sample, sequential.result().best_sample);
}

// The engine's attack reduction is the fixed-shape binary merge tree —
// not a left fold — and must be reproducible from the per-shard
// accumulators alone: accumulate every shard by hand in canonical order,
// reduce with merge_shard_tree, and require BIT-IDENTICAL scores.
TEST(MergeTest, EngineCpaEqualsFixedShapeTreeMerge) {
  const SboxSpec spec = present_spec();
  CampaignOptions options = sharded_options();
  TraceEngine engine(spec, LogicStyle::kStaticCmos, kTech);
  const TraceSet traces = retained_campaign(engine, options);

  const std::size_t shard_size = campaign_shard_size(options);
  std::vector<StreamingCpa> shards;
  for (std::size_t start = 0; start < traces.size(); start += shard_size) {
    const std::size_t count = std::min(shard_size, traces.size() - start);
    StreamingCpa acc(spec, PowerModel::kHammingWeight);
    // The pipeline feeds each shard through the block-factored path.
    acc.add_block(traces.plaintexts.data() + start,
                  traces.samples.data() + start, count);
    shards.push_back(std::move(acc));
  }
  ASSERT_GT(shards.size(), 2u);
  const AttackResult tree = merge_shard_tree(std::move(shards)).result();

  TraceEngine engine2(spec, LogicStyle::kStaticCmos, kTech);
  const AttackResult campaign = engine2.attack(
      options, CpaDistinguisher(
                   spec, AttackSelector{.model = PowerModel::kHammingWeight}));
  ASSERT_EQ(campaign.score.size(), tree.score.size());
  for (std::size_t g = 0; g < tree.score.size(); ++g) {
    EXPECT_EQ(campaign.score[g], tree.score[g]) << g;
  }
  EXPECT_EQ(campaign.best_guess, tree.best_guess);
  EXPECT_EQ(campaign.margin, tree.margin);
}

// ---- round targets --------------------------------------------------------

// Distinct subkeys so attacking instance i is distinguishable from
// attacking any other instance.
std::vector<std::size_t> round_subkeys(std::size_t n) {
  std::vector<std::size_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = (i * 7 + 3) & 0xF;
  return keys;
}

// The acceptance contract of the round-target redesign: a full 16-S-box
// PRESENT layer in the paper's enhanced style, attacked on one subkey
// through the selector API, is bit-identical for any worker count. Every
// worker runs a RoundTarget::clone(), so this also pins clone() fidelity
// under threading.
TEST(EngineDeterminismTest, RoundCpaCampaignBitIdenticalAcrossThreadCounts) {
  const RoundSpec round = present_round(16, LogicStyle::kSablEnhanced);
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = round.pack_subkeys(round_subkeys(16));
  options.noise_sigma = 2e-16;
  options.seed = 0x16BEEF;
  options.shard_size = 448;
  options.num_threads = 1;
  const AttackSelector selector{.sbox_index = 3,
                                .model = PowerModel::kHammingWeight};
  TraceEngine reference_engine(round, kTech);
  const AttackResult reference = reference_engine.attack(
      options, CpaDistinguisher(round.sboxes[selector.sbox_index], selector));
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    TraceEngine engine(round, kTech);
    options.num_threads = threads;
    const AttackResult result = engine.attack(
        options, CpaDistinguisher(round.sboxes[selector.sbox_index], selector));
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(result.best_guess, reference.best_guess) << threads;
    EXPECT_EQ(result.margin, reference.margin) << threads;
  }
}

// The dispatch-tier contract at full round scale: a 16-S-box PRESENT
// layer in the paper's enhanced style must produce bit-identical CPA
// scores under every dispatch tier crossed with several worker counts —
// the tier the block-stats kernels run at and the threads the shards
// land on are both pure throughput knobs. One engine serves every run,
// so this also exercises the persistent worker pool.
TEST(EngineDeterminismTest, RoundCpaCampaignBitIdenticalAcrossDispatchTiers) {
  const RoundSpec round = present_round(16, LogicStyle::kSablEnhanced);
  CampaignOptions options;
  options.num_traces = 900;
  options.key = round.pack_subkeys(round_subkeys(16));
  options.noise_sigma = 2e-16;
  options.seed = 0x16A8E5;
  options.shard_size = 448;
  options.num_threads = 1;
  const AttackSelector selector{.sbox_index = 5,
                                .model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  const AttackResult reference = engine.attack(
      options, CpaDistinguisher(round.sboxes[selector.sbox_index], selector));
  for (DispatchTier tier : tiers_under_test()) {
    ScopedDispatchTierCap cap(tier);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      options.num_threads = threads;
      const AttackResult result = engine.attack(
          options,
          CpaDistinguisher(round.sboxes[selector.sbox_index], selector));
      const std::string where = std::string("tier ") + to_string(tier) +
                                " threads " + std::to_string(threads);
      ASSERT_EQ(result.score.size(), reference.score.size());
      for (std::size_t g = 0; g < reference.score.size(); ++g) {
        EXPECT_EQ(result.score[g], reference.score[g])
            << where << " guess " << g;
      }
      EXPECT_EQ(result.best_guess, reference.best_guess) << where;
      EXPECT_EQ(result.margin, reference.margin) << where;
    }
  }
}

// The new distinguisher pipeline inherits the determinism contract: a
// second-order centered-product campaign must be bit-identical under
// every dispatch tier crossed with several worker counts — the
// fourth-order co-moment merges run through the same fixed-shape tree.
TEST(EngineDeterminismTest, SecondOrderCampaignBitIdenticalAcrossThreadsAndTiers) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  CampaignOptions options;
  options.num_traces = 1200;
  options.key = round.pack_subkeys(round_subkeys(2));
  options.noise_sigma = 2e-16;
  options.seed = 0x20CDE;
  options.shard_size = 448;
  options.num_threads = 1;
  const AttackSelector selector{.sbox_index = 1,
                                .model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  const SecondOrderAttackResult reference = engine.attack(
      options,
      SecondOrderCpaDistinguisher(round.sboxes[selector.sbox_index], selector));
  for (DispatchTier tier : tiers_under_test()) {
    ScopedDispatchTierCap cap(tier);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2},
          std::max<std::size_t>(1, std::thread::hardware_concurrency())}) {
      options.num_threads = threads;
      const SecondOrderAttackResult result = engine.attack(
          options, SecondOrderCpaDistinguisher(
                       round.sboxes[selector.sbox_index], selector));
      ASSERT_EQ(result.combined.score.size(),
                reference.combined.score.size());
      for (std::size_t g = 0; g < reference.combined.score.size(); ++g) {
        EXPECT_EQ(result.combined.score[g], reference.combined.score[g])
            << "tier " << to_string(tier) << " threads " << threads
            << " guess " << g;
      }
      EXPECT_EQ(result.combined.best_guess, reference.combined.best_guess);
      EXPECT_EQ(result.best_pair_first, reference.best_pair_first);
      EXPECT_EQ(result.best_pair_second, reference.best_pair_second);
    }
  }
}

// One-pass multi-selector campaigns (every subkey from one simulation)
// carry the same guarantee: scores per subkey bit-identical across
// num_threads × dispatch tier.
TEST(EngineDeterminismTest, AllSubkeysCampaignBitIdenticalAcrossThreadsAndTiers) {
  const RoundSpec round = present_round(4, LogicStyle::kSablGenuine);
  CampaignOptions options;
  options.num_traces = 1200;
  options.key = round.pack_subkeys(round_subkeys(4));
  options.noise_sigma = 2e-16;
  options.seed = 0xA11CDE;
  options.shard_size = 448;
  options.num_threads = 1;
  TraceEngine engine(round, kTech);
  // One CpaDistinguisher per instance, all sharing one campaign.
  const auto all_subkeys = [&] {
    std::vector<CpaDistinguisher> attacks;
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      attacks.emplace_back(
          round.sboxes[i],
          AttackSelector{.sbox_index = i, .model = PowerModel::kHammingWeight});
    }
    std::vector<Distinguisher*> list;
    for (CpaDistinguisher& attack : attacks) list.push_back(&attack);
    engine.run_distinguishers(options, list);
    std::vector<AttackResult> results;
    for (const CpaDistinguisher& attack : attacks) {
      results.push_back(attack.result());
    }
    return results;
  };
  const std::vector<AttackResult> reference = all_subkeys();
  ASSERT_EQ(reference.size(), 4u);
  for (DispatchTier tier : tiers_under_test()) {
    ScopedDispatchTierCap cap(tier);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2},
          std::max<std::size_t>(1, std::thread::hardware_concurrency())}) {
      options.num_threads = threads;
      const std::vector<AttackResult> results = all_subkeys();
      const std::string where = std::string("tier ") + to_string(tier) +
                                " threads " + std::to_string(threads);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        for (std::size_t g = 0; g < reference[i].score.size(); ++g) {
          EXPECT_EQ(results[i].score[g], reference[i].score[g])
              << where << " sbox " << i << " guess " << g;
        }
        EXPECT_EQ(results[i].best_guess, reference[i].best_guess)
            << where << " sbox " << i;
      }
    }
  }
}

// shard_size = 0 engages the autotuner. The derived shard size is a pure
// function of num_traces (see campaign_shard_size), never of the worker
// count or the machine — so autotuned campaigns must
// carry the exact same bit-identity guarantee as pinned ones: same
// traces, same CPA scores, for every thread count. 3000 traces autotune
// to 1024-trace shards, so the merge path is genuinely multi-shard.
TEST(EngineDeterminismTest, AutotunedShardsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.shard_size = 0;  // autotune
  options.num_threads = 1;
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const TraceSet reference = retained_campaign(engine, options);
  const AttackResult cpa_reference =
      engine.attack(options, CpaDistinguisher(present_spec(), selector));
  EXPECT_EQ(cpa_reference.best_guess, options.key[0]);
  for (std::size_t threads : thread_counts_under_test()) {
    options.num_threads = threads;
    const TraceSet traces = retained_campaign(engine, options);
    ASSERT_EQ(traces.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(traces.plaintexts[i], reference.plaintexts[i])
          << "threads " << threads << " trace " << i;
      ASSERT_EQ(traces.samples[i], reference.samples[i])
          << "threads " << threads << " trace " << i;
    }
    const AttackResult cpa =
        engine.attack(options, CpaDistinguisher(present_spec(), selector));
    ASSERT_EQ(cpa.score.size(), cpa_reference.score.size());
    for (std::size_t g = 0; g < cpa_reference.score.size(); ++g) {
      EXPECT_EQ(cpa.score[g], cpa_reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(cpa.best_guess, cpa_reference.best_guess) << threads;
    EXPECT_EQ(cpa.margin, cpa_reference.margin) << threads;
  }
}

// The runtime-dispatch contract: the SAME campaign through the SAME
// engine must stream bit-identical traces and CPA scores whichever kernel
// tier dispatch lands on — portable, AVX2 or the widest the machine has —
// crossed with several worker counts. ScopedDispatchTierCap forces the
// lower tiers on one machine.
TEST(EngineDeterminismTest, CampaignsBitIdenticalAcrossDispatchTiers) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const TraceSet reference = retained_campaign(engine, options);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const AttackResult cpa_reference =
      engine.attack(options, CpaDistinguisher(present_spec(), selector));
  for (DispatchTier tier : tiers_under_test()) {
    ScopedDispatchTierCap cap(tier);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      options.num_threads = threads;
      const TraceSet traces = retained_campaign(engine, options);
      ASSERT_EQ(traces.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(traces.samples[i], reference.samples[i])
            << "tier " << to_string(tier) << " threads " << threads
            << " trace " << i;
      }
      const AttackResult cpa =
          engine.attack(options, CpaDistinguisher(present_spec(), selector));
      ASSERT_EQ(cpa.score.size(), cpa_reference.score.size());
      for (std::size_t g = 0; g < cpa_reference.score.size(); ++g) {
        EXPECT_EQ(cpa.score[g], cpa_reference.score[g])
            << "tier " << to_string(tier) << " threads " << threads
            << " guess " << g;
      }
      EXPECT_EQ(cpa.best_guess, cpa_reference.best_guess);
      EXPECT_EQ(cpa.margin, cpa_reference.margin);
    }
  }
}

// RoundKernel::clone() must be state-free: after disturbing the original,
// a clone's traces equal a freshly constructed kernel's, bit for bit.
TEST(CloneTest, ClonedRoundKernelMatchesFreshKernel) {
  const RoundSpec round = present_round(3, LogicStyle::kStaticCmos);
  const std::vector<std::uint8_t> key = round.pack_subkeys({0x2, 0xB, 0x5});
  RoundKernel original(round, kTech);
  Rng warmup(0x77);
  std::vector<std::uint8_t> state(round.state_bytes(), 0);
  for (int i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
      round.set_sub_word(state.data(), j, warmup.below(16));
    }
    original.trace(state.data(), key.data(), 0.0, warmup);
  }
  RoundKernel cloned = original.clone();
  RoundKernel fresh(round, kTech);
  Rng rng_a(0x88);
  Rng rng_b(0x88);
  Rng pts(0x99);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
      round.set_sub_word(state.data(), j, pts.below(16));
    }
    EXPECT_EQ(cloned.trace(state.data(), key.data(), 1e-16, rng_a),
              fresh.trace(state.data(), key.data(), 1e-16, rng_b))
        << i;
  }
}

// RoundTarget::clone() starts every logical lane fresh: after the
// original's table-lane history is disturbed, a clone's batch equals a
// fresh target's.
TEST(CloneTest, ClonedRoundTargetMatchesFreshTarget) {
  const RoundSpec round = present_round(3, LogicStyle::kStaticCmos);
  const std::vector<std::uint8_t> key = round.pack_subkeys({0x2, 0xB, 0x5});
  const std::size_t count = 200;
  std::vector<std::uint8_t> pts(count * round.state_bytes());
  Rng pt_rng(0x99);
  round.fill_random_states(pt_rng, count, pts.data());
  RoundTarget original(round, kTech);
  Rng no_noise(0);
  std::vector<double> warm(count);
  original.trace_batch(pts.data(), count, key.data(), 0.0, no_noise,
                       warm.data());
  RoundTarget cloned = original.clone();
  RoundTarget fresh(round, kTech);
  std::vector<double> a(count);
  std::vector<double> b(count);
  cloned.trace_batch(pts.data(), count, key.data(), 0.0, no_noise, a.data());
  fresh.trace_batch(pts.data(), count, key.data(), 0.0, no_noise, b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, warm);
}

// clone() must produce a target whose traces match a freshly constructed
// one — no hidden shared state with its source.
TEST(CloneTest, ClonedTargetMatchesFreshTarget) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kWddlMismatched}) {
    SboxTarget original(present_spec(), style, kTech);
    // Disturb the original's state so a state-sharing clone would differ.
    Rng warmup(0x11);
    for (int i = 0; i < 10; ++i) {
      original.trace(static_cast<std::uint8_t>(warmup.below(16)), 0x5, 0.0,
                     warmup);
    }
    SboxTarget cloned = original.clone();
    SboxTarget fresh(present_spec(), style, kTech);
    Rng rng_a(0x22);
    Rng rng_b(0x22);
    for (int i = 0; i < 64; ++i) {
      const auto pt = static_cast<std::uint8_t>(i % 16);
      EXPECT_EQ(cloned.trace(pt, 0x5, 1e-16, rng_a),
                fresh.trace(pt, 0x5, 1e-16, rng_b))
          << to_string(style) << " trace " << i;
    }
  }
}

}  // namespace
}  // namespace sable
