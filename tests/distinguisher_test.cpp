// The distinguisher pipeline's contract:
//
//  * every single attack (engine.attack with a CPA/DoM/MTD/multi-CPA
//    distinguisher) is BIT-IDENTICAL to the pre-pipeline formulation —
//    per-shard streaming accumulators over the streamed campaign,
//    reduced by the fixed-shape merge tree (or, for MTD, the ordered
//    prefix fold over checkpoint-split sub-blocks) —
//    which is exactly the reference reconstructed by hand here; MTD is
//    also checked against the naive prefix oracle (dpa_reference.hpp);
//  * the second-order centered-product CPA matches the retained-trace
//    oracle (dpa_reference.hpp) to 1e-12;
//  * one-pass multi-selector campaigns match N independent re-simulated
//    campaigns bit for bit;
//  * mixing data kinds in one run_distinguishers call changes nothing;
//  * the shard feed rejects a single-byte round's out-of-range plaintext;
//  * a NaN or +Inf sample is rejected with InvalidArgument by every
//    distinguisher, live (through the shard feed) and replayed;
//  * campaign_shard_size clamps small block sizes to one 64-lane word.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dpa/distinguisher.hpp"
#include "dpa/second_order.hpp"
#include "dpa_reference.hpp"
#include "engine/shard_feed.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "io/replay.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

// Multi-shard, ragged tail: 2000 traces over 448-trace shards = 5 shards.
CampaignOptions reference_options(const RoundSpec& round) {
  CampaignOptions options;
  options.num_traces = 2000;
  std::vector<std::size_t> subkeys(round.num_sboxes());
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    subkeys[i] = (0x9 + 5 * i) & 0xF;
  }
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 2e-16;
  options.seed = 0xD157;
  options.shard_size = 448;
  return options;
}

// Streams the campaign and hands each shard's block (the sink is invoked
// exactly once per shard) to `consume(shard_index, sub_pts, samples,
// count)` with the attacked instance's sub-plaintexts extracted — the
// manual form of the pre-pipeline attack campaigns.
template <typename Consume>
void for_each_shard(TraceEngine& engine, const CampaignOptions& options,
                    std::size_t sbox_index, bool sampled, Consume&& consume) {
  const RoundSpec& round = engine.round();
  std::vector<std::uint8_t> sub_pts(campaign_shard_size(options));
  std::size_t shard = 0;
  const auto sink = [&](const std::uint8_t* pts, const double* samples,
                        std::size_t n) {
    round.sub_words(pts, n, sbox_index, sub_pts.data());
    consume(shard++, sub_pts.data(), samples, n);
  };
  if (sampled) {
    engine.stream_sampled(options, sink);
  } else {
    engine.stream(options, sink);
  }
}

void expect_same_result(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.score.size(), b.score.size());
  for (std::size_t g = 0; g < b.score.size(); ++g) {
    // EXPECT_EQ on doubles is exact equality: bit-identical, not close.
    EXPECT_EQ(a.score[g], b.score[g]) << "guess " << g;
  }
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.margin, b.margin);
}

// ---- single-distinguisher attacks vs the pre-pipeline formulation ---------

TEST(DistinguisherPipelineTest, CpaCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(2, LogicStyle::kSablGenuine);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.sbox_index = 1,
                                .model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  std::vector<StreamingCpa> shards;
  for_each_shard(engine, options, selector.sbox_index, /*sampled=*/false,
                 [&](std::size_t, const std::uint8_t* pts,
                     const double* samples, std::size_t n) {
                   shards.emplace_back(round.sboxes[selector.sbox_index],
                                       selector.model, selector.bit);
                   // One add_block per shard: the block-factored feed the
                   // pipeline's shard accumulators use.
                   shards.back().add_block(pts, samples, n);
                 });
  ASSERT_EQ(shards.size(), 5u);
  const AttackResult reference = merge_shard_tree(std::move(shards)).result();
  expect_same_result(
      engine.attack(options, CpaDistinguisher(
                                 engine.spec(selector.sbox_index), selector)),
      reference);
}

TEST(DistinguisherPipelineTest, DomCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.sbox_index = 0, .bit = 2};
  TraceEngine engine(round, kTech);
  std::vector<StreamingDom> shards;
  for_each_shard(engine, options, selector.sbox_index, /*sampled=*/false,
                 [&](std::size_t, const std::uint8_t* pts,
                     const double* samples, std::size_t n) {
                   shards.emplace_back(round.sboxes[selector.sbox_index],
                                       selector.bit);
                   shards.back().add_block(pts, samples, n);
                 });
  const AttackResult reference = merge_shard_tree(std::move(shards)).result();
  expect_same_result(
      engine.attack(options, DomDistinguisher(
                                 engine.spec(selector.sbox_index), selector)),
      reference);
}

TEST(DistinguisherPipelineTest, MtdCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const std::vector<std::size_t> checkpoints =
      default_checkpoints(options.num_traces);
  std::vector<std::size_t> ladder = checkpoints;
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  ladder.erase(std::remove_if(ladder.begin(), ladder.end(),
                              [&](std::size_t c) {
                                return c < 2 || c > options.num_traces;
                              }),
               ladder.end());

  TraceEngine engine(round, kTech);
  const SboxSpec& spec = round.sboxes[0];
  const std::size_t subkey = round.sub_word(options.key.data(), 0);
  // The retained campaign for the prefix oracle.
  TraceSet retained;
  for_each_shard(engine, options, 0, /*sampled=*/false,
                 [&](std::size_t, const std::uint8_t* pts,
                     const double* samples, std::size_t n) {
                   retained.add_batch(pts, samples, n);
                 });

  // The ordered fold by hand: each shard splits its block at the
  // checkpoints inside it (one add_block per sub-block), and every
  // checkpoint is ranked from merge(prior shards, partial).
  std::optional<StreamingCpa> merged;
  std::vector<std::pair<std::size_t, std::size_t>> history;
  for_each_shard(
      engine, options, 0, /*sampled=*/false,
      [&](std::size_t shard, const std::uint8_t* pts, const double* samples,
          std::size_t n) {
        const std::size_t start = shard * campaign_shard_size(options);
        StreamingCpa acc(spec, selector.model, selector.bit);
        std::size_t done = 0;
        for (auto it = std::upper_bound(ladder.begin(), ladder.end(), start);
             it != ladder.end() && *it <= start + n; ++it) {
          acc.add_block(pts + done, samples + done, *it - start - done);
          done = *it - start;
          StreamingCpa prefix = merged ? *merged : acc;
          if (merged) prefix.merge(acc);
          ASSERT_EQ(prefix.count(), *it);
          // Every checkpoint's scores sit within 1e-12 of the two-pass
          // oracle over the same prefix.
          const std::vector<double> oracle = reference::cpa_scores(
              reference::prefix(retained, *it), spec, selector.model);
          const AttackResult scored = prefix.result();
          for (std::size_t g = 0; g < oracle.size(); ++g) {
            EXPECT_NEAR(scored.score[g], oracle[g], 1e-12)
                << "checkpoint " << *it << " guess " << g;
          }
          history.emplace_back(*it, scored.rank_of(subkey));
        }
        acc.add_block(pts + done, samples + done, n - done);
        if (merged) {
          merged->merge(acc);
        } else {
          merged = acc;
        }
      });
  const MtdResult reference = mtd_from_history(std::move(history));
  const MtdResult result = engine.attack(
      options, MtdDistinguisher(engine.spec(), selector,
                                round.sub_word(options.key.data(), 0),
                                checkpoints, options.num_traces));
  EXPECT_EQ(result.disclosed, reference.disclosed);
  EXPECT_EQ(result.mtd, reference.mtd);
  ASSERT_EQ(result.rank_history.size(), reference.rank_history.size());
  for (std::size_t i = 0; i < reference.rank_history.size(); ++i) {
    EXPECT_EQ(result.rank_history[i], reference.rank_history[i]) << i;
  }
  EXPECT_TRUE(reference.disclosed);
  // And rank for rank, the prefix oracle's curve.
  EXPECT_EQ(result.rank_history,
            reference::cpa_prefix_mtd(retained, subkey, checkpoints, spec,
                                      selector.model)
                .rank_history);
}

TEST(DistinguisherPipelineTest, MultiCpaCampaignBitIdenticalToManualShards) {
  const RoundSpec round = present_round(1, LogicStyle::kSablGenuine);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  const std::size_t width = engine.target().num_levels();
  std::vector<StreamingMultiCpa> shards;
  for_each_shard(engine, options, 0, /*sampled=*/true,
                 [&](std::size_t, const std::uint8_t* pts, const double* rows,
                     std::size_t n) {
                   shards.emplace_back(round.sboxes[0], selector.model, width,
                                       selector.bit);
                   shards.back().add_block(pts, rows, n);
                 });
  const MultiAttackResult reference =
      merge_shard_tree(std::move(shards)).result();
  const MultiAttackResult result =
      engine.attack(options,
                    MultiCpaDistinguisher(engine.spec(), selector, width));
  expect_same_result(result.combined, reference.combined);
  EXPECT_EQ(result.best_sample, reference.best_sample);
}

// ---- second-order CPA vs the retained-trace reference ---------------------

TEST(SecondOrderCpaTest, MatchesRetainedTraceReference) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  ASSERT_GE(engine.target().num_levels(), 2u);

  MultiTraceSet retained;
  retained.reserve(options.num_traces, engine.target().num_levels());
  engine.stream_sampled(options, [&](const std::uint8_t* pts,
                                     const double* rows, std::size_t n) {
    const std::size_t width = engine.target().num_levels();
    for (std::size_t t = 0; t < n; ++t) {
      retained.add(pts[t], rows + t * width, width);
    }
  });
  const SecondOrderAttackResult reference = reference::second_order_cpa(
      retained, round.sboxes[0], selector.model);
  const SecondOrderAttackResult result =
      engine.attack(options,
                    SecondOrderCpaDistinguisher(engine.spec(), selector));

  ASSERT_EQ(result.combined.score.size(), reference.combined.score.size());
  for (std::size_t g = 0; g < reference.combined.score.size(); ++g) {
    EXPECT_NEAR(result.combined.score[g], reference.combined.score[g], 1e-12)
        << "guess " << g;
  }
  EXPECT_EQ(result.combined.best_guess, reference.combined.best_guess);
  EXPECT_EQ(result.best_pair_first, reference.best_pair_first);
  EXPECT_EQ(result.best_pair_second, reference.best_pair_second);
  const std::size_t subkey = round.sub_word(options.key.data(), 0);
  EXPECT_EQ(result.combined.rank_of(subkey),
            reference.combined.rank_of(subkey));
}

TEST(SecondOrderCpaTest, MergeMatchesSequentialAccumulation) {
  const SboxSpec spec = present_spec();
  const std::size_t width = 5;
  const std::size_t count = 3000;
  Rng rng(0x5EC0);
  std::vector<std::uint8_t> pts(count);
  std::vector<double> rows(count * width);
  for (std::size_t t = 0; t < count; ++t) {
    pts[t] = static_cast<std::uint8_t>(rng.below(16));
    for (std::size_t i = 0; i < width; ++i) {
      // Trace-scale magnitudes with data dependence, so the centered
      // products live in the cancellation regime the merge must survive.
      rows[t * width + i] =
          1e-13 + 1e-15 * rng.gaussian() +
          2e-16 * static_cast<double>((pts[t] >> (i % 4)) & 1u);
    }
  }
  StreamingSecondOrderCpa sequential(spec, PowerModel::kHammingWeight);
  sequential.add_block(pts.data(), rows.data(), count, width);

  StreamingSecondOrderCpa merged(spec, PowerModel::kHammingWeight);
  const std::size_t bounds[] = {0, 311, 312, 1024, 3000};
  for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
    StreamingSecondOrderCpa part(spec, PowerModel::kHammingWeight);
    part.add_block(pts.data() + bounds[p], rows.data() + bounds[p] * width,
                   bounds[p + 1] - bounds[p], width);
    merged.merge(part);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  const SecondOrderAttackResult a = merged.result();
  const SecondOrderAttackResult b = sequential.result();
  ASSERT_EQ(a.combined.score.size(), b.combined.score.size());
  for (std::size_t g = 0; g < b.combined.score.size(); ++g) {
    EXPECT_NEAR(a.combined.score[g], b.combined.score[g], 1e-12) << g;
  }
  EXPECT_EQ(a.best_pair_first, b.best_pair_first);
  EXPECT_EQ(a.best_pair_second, b.best_pair_second);
}

// ---- one-pass multi-selector campaigns ------------------------------------

TEST(DistinguisherPipelineTest, OnePassAllSubkeysMatchesIndependentCampaigns) {
  const RoundSpec round = present_round(4, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  std::vector<CpaDistinguisher> one_pass;
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    one_pass.emplace_back(
        round.sboxes[i],
        AttackSelector{.sbox_index = i, .model = PowerModel::kHammingWeight});
  }
  std::vector<Distinguisher*> list;
  for (CpaDistinguisher& cpa : one_pass) list.push_back(&cpa);
  engine.run_distinguishers(options, list);
  ASSERT_EQ(one_pass.size(), round.num_sboxes());
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    const AttackResult independent = engine.attack(
        options, CpaDistinguisher(engine.spec(i), one_pass[i].selector()));
    expect_same_result(one_pass[i].result(), independent);
    // Every subkey must actually be recovered from the single campaign —
    // static CMOS leaks, and each instance's neighbours are only noise.
    EXPECT_EQ(one_pass[i].result().best_guess,
              round.sub_word(options.key.data(), i))
        << "sbox " << i;
  }
}

TEST(DistinguisherPipelineTest, MixedKindsShareOneCampaignUnchanged) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  const AttackSelector cpa_sel{.sbox_index = 0,
                               .model = PowerModel::kHammingWeight};
  const AttackSelector dom_sel{.sbox_index = 1, .bit = 1};

  CpaDistinguisher cpa(round.sboxes[0], cpa_sel);
  DomDistinguisher dom(round.sboxes[1], dom_sel);
  SecondOrderCpaDistinguisher second(round.sboxes[0], cpa_sel);
  std::vector<Distinguisher*> all = {&cpa, &dom, &second};
  engine.run_distinguishers(options, all);

  expect_same_result(cpa.result(),
                     engine.attack(options, CpaDistinguisher(
                                                round.sboxes[0], cpa_sel)));
  expect_same_result(dom.result(),
                     engine.attack(options, DomDistinguisher(
                                                round.sboxes[1], dom_sel)));
  const SecondOrderAttackResult solo = engine.attack(
      options, SecondOrderCpaDistinguisher(round.sboxes[0], cpa_sel));
  expect_same_result(second.result().combined, solo.combined);
  EXPECT_EQ(second.result().best_pair_first, solo.best_pair_first);
  EXPECT_EQ(second.result().best_pair_second, solo.best_pair_second);
}

// ---- validation and shard-size clamping -----------------------------------

// A round of one byte-wide S-box hands its plaintexts straight through as
// the sub-plaintexts, so a byte outside the S-box input range (only a
// corrupt or foreign corpus carries one) reaches the accumulators and is
// rejected, where a sub_words pass would have masked it silently.
TEST(ShardFeedTest, SingleByteRoundRejectsOutOfRangePlaintext) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  ASSERT_EQ(round.state_bytes(), 1u);  // 4-bit S-box in a one-byte state
  CpaDistinguisher cpa(round.sboxes[0],
                       AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&cpa};
  const ShardFeed feed(round, list);
  std::vector<std::uint8_t> pts = {0x3, 0xA, 0x1F, 0x7};
  const std::vector<double> samples = {1.0, 2.0, 4.0, 3.0};
  ShardStates states(1);
  states[0].resize(1);
  ShardTraces traces;
  traces.count = pts.size();
  traces.pts = pts.data();
  traces.scalar = samples.data();
  ShardFeed::Scratch scratch;
  try {
    feed.feed(traces, states, scratch);
    ADD_FAILURE() << "out-of-range plaintext 0x1F was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("plaintext out of range"),
              std::string::npos)
        << e.what();
  }
  pts[2] = 0xF;
  EXPECT_NO_THROW(feed.feed(traces, states, scratch));
  EXPECT_NE(states[0][0], nullptr);
}

// ---- non-finite samples -----------------------------------------------------

// A NaN or ±Inf sample makes the histogram pass's sum of squares
// non-finite, and every accumulator checks that sum once per block.
// The parameter goes into one trace (one row element for sampled data)
// of a shard; every distinguisher must reject the shard with
// InvalidArgument, live through the shard feed and replayed from a
// corpus holding it.
class NonFiniteSampleTest : public ::testing::TestWithParam<double> {
 protected:
  static constexpr std::size_t kBadTrace = 37;

  NonFiniteSampleTest()
      : round_(present_round(1, LogicStyle::kStaticCmos)),
        engine_(round_, kTech),
        levels_(engine_.target().num_levels()) {}

  // One fresh instance of each distinguisher kind, on sbox 0, in kNames
  // order.
  static constexpr const char* kNames[] = {"CPA", "DoM", "MTD", "MultiCpa",
                                           "second-order CPA"};
  std::vector<std::unique_ptr<Distinguisher>> distinguishers() const {
    const SboxSpec& spec = round_.sboxes[0];
    const AttackSelector sel{.model = PowerModel::kHammingWeight};
    std::vector<std::unique_ptr<Distinguisher>> all;
    all.push_back(std::make_unique<CpaDistinguisher>(spec, sel));
    all.push_back(std::make_unique<DomDistinguisher>(spec, sel));
    all.push_back(std::make_unique<MtdDistinguisher>(
        spec, sel, 0x9, std::vector<std::size_t>{100, 1000}, 1500));
    all.push_back(std::make_unique<MultiCpaDistinguisher>(spec, sel, levels_));
    all.push_back(std::make_unique<SecondOrderCpaDistinguisher>(spec, sel));
    return all;
  }

  static void expect_rejected(const std::function<void()>& run,
                              const std::string& what) {
    try {
      run();
      ADD_FAILURE() << what << " accepted a non-finite sample";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
          << what << ": " << e.what();
    }
  }

  RoundSpec round_;
  TraceEngine engine_;
  std::size_t levels_;
};

TEST_P(NonFiniteSampleTest, RejectedLive) {
  constexpr std::size_t kCount = 200;
  Rng rng(0xBAD);
  std::vector<std::uint8_t> pts(kCount);
  std::vector<double> scalar(kCount);
  std::vector<double> rows(kCount * levels_);
  for (std::size_t i = 0; i < kCount; ++i) {
    pts[i] = static_cast<std::uint8_t>(rng.below(16));
    scalar[i] = 1e-13 + 1e-15 * rng.gaussian();
    for (std::size_t l = 0; l < levels_; ++l) {
      rows[i * levels_ + l] = 1e-14 + 1e-16 * rng.gaussian();
    }
  }
  scalar[kBadTrace] = GetParam();
  rows[kBadTrace * levels_ + levels_ / 2] = GetParam();
  ShardTraces traces;
  traces.count = kCount;
  traces.pts = pts.data();
  traces.scalar = scalar.data();
  traces.rows = rows.data();
  traces.levels = levels_;
  const auto all = distinguishers();
  for (std::size_t d = 0; d < all.size(); ++d) {
    Distinguisher* const list[] = {all[d].get()};
    const ShardFeed feed(round_, list);
    ShardStates states(1);
    states[0].resize(1);
    ShardFeed::Scratch scratch;
    expect_rejected([&] { feed.feed(traces, states, scratch); }, kNames[d]);
  }
}

TEST_P(NonFiniteSampleTest, RejectedReplayed) {
  CampaignOptions options;
  options.num_traces = 1500;  // shards of 448; the bad trace is in shard 1
  options.key = {0x9};
  options.noise_sigma = 2e-16;
  options.seed = 0xBAD;
  options.shard_size = 448;
  for (const TraceDataKind kind :
       {TraceDataKind::kScalar, TraceDataKind::kSampled}) {
    const std::string clean =
        testing::TempDir() + "nonfinite_clean.corpus";
    const std::string bad = testing::TempDir() + "nonfinite_bad.corpus";
    engine_.record(options, kind, clean);
    {
      const CorpusReader reader(clean);
      CorpusWriter writer(bad, reader.manifest());
      CorpusDecodeScratch scratch;
      for (std::size_t s = 0; s < reader.num_shards(); ++s) {
        const CorpusShardView view = reader.read_shard(s, scratch);
        const std::size_t width = reader.manifest().sample_width;
        std::vector<double> samples(view.samples,
                                    view.samples + view.count * width);
        if (s == 1) samples[kBadTrace * width] = GetParam();
        writer.append_shard(view.pts, samples.data(), view.count);
      }
      writer.finish();
    }
    const CorpusReader reader(bad);
    const auto all = distinguishers();
    for (std::size_t d = 0; d < all.size(); ++d) {
      if (all[d]->data_kind() != kind) continue;
      Distinguisher* const list[] = {all[d].get()};
      expect_rejected(
          [&] { replay_distinguishers(reader, round_, list, {}, 2); },
          kNames[d]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NanAndInf, NonFiniteSampleTest,
    ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()));

TEST(DistinguisherPipelineTest, ValidatesSpecAgainstRound) {
  const RoundSpec round = present_round(1, LogicStyle::kStaticCmos);
  const CampaignOptions options = reference_options(round);
  TraceEngine engine(round, kTech);
  // Wrong spec for the attacked instance: built for AES, run on PRESENT.
  CpaDistinguisher mismatched(
      aes_spec(), AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&mismatched};
  EXPECT_THROW(
      engine.run_distinguishers(options, list),
      InvalidArgument);
  // Results are only valid after a campaign finalized the distinguisher.
  CpaDistinguisher fresh(present_spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight});
  EXPECT_THROW(fresh.result(), InvalidArgument);

  // The checks a single attack gets from engine.spec(), the distinguisher
  // and run_distinguishers: instance index, DoM output bit, sampled row
  // width.
  const RoundSpec pair = present_round(2, LogicStyle::kStaticCmos);
  TraceEngine pair_engine(pair, kTech);
  EXPECT_THROW(pair_engine.spec(2), InvalidArgument);
  EXPECT_THROW(
      engine.attack(options,
                    DomDistinguisher(present_spec(),
                                     AttackSelector{.bit = present_spec()
                                                               .out_bits})),
      InvalidArgument);
  EXPECT_THROW(
      engine.attack(options, MultiCpaDistinguisher(
                                 present_spec(),
                                 AttackSelector{
                                     .model = PowerModel::kHammingWeight},
                                 engine.target().num_levels() + 1)),
      InvalidArgument);
}

TEST(CampaignShardSizeTest, ClampsSmallBlocksToOneLaneWord) {
  CampaignOptions options;
  for (std::size_t block : {std::size_t{1}, std::size_t{63}}) {
    options.shard_size = block;
    EXPECT_EQ(campaign_shard_size(options), 64u) << block;
  }
  options.shard_size = 64;
  EXPECT_EQ(campaign_shard_size(options), 64u);
  options.shard_size = 100;  // rounds down to whole 64-lane words
  EXPECT_EQ(campaign_shard_size(options), 64u);
  options.shard_size = 130;
  EXPECT_EQ(campaign_shard_size(options), 128u);
}

// shard_size = 0 derives the shard size from num_traces and fixed
// constants alone: clamp(num_traces / 256 rounded to a whole 64-lane
// word, 1024, 65536). The autotuned size must never depend on the thread
// count or lane width — it is part of the stream definition.
TEST(CampaignShardSizeTest, AutotunesFromTraceCountAlone) {
  CampaignOptions options;
  options.shard_size = 0;
  // Small campaigns stay single-shard (min clamp).
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{256},
                        std::size_t{1024}, std::size_t{200000}}) {
    options.num_traces = n;
    EXPECT_EQ(campaign_shard_size(options), 1024u) << n;
  }
  // Mid-range aims for ~256 shards, rounded to whole 64-lane words.
  options.num_traces = 1u << 20;  // 1Mi / 256 = 4096
  EXPECT_EQ(campaign_shard_size(options), 4096u);
  options.num_traces = 300000;  // 1171.875 -> 1171 -> round to 1152
  EXPECT_EQ(campaign_shard_size(options), 1152u);
  // Huge campaigns cap the shard (max clamp).
  options.num_traces = 1u << 27;
  EXPECT_EQ(campaign_shard_size(options), 65536u);
  // The knobs that must NOT matter.
  options.num_traces = 1u << 20;
  for (std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    options.num_threads = threads;
    EXPECT_EQ(campaign_shard_size(options), 4096u);
  }
  for (std::size_t width : {std::size_t{64}, std::size_t{128}}) {
    options.lane_width = width;
    EXPECT_EQ(campaign_shard_size(options), 4096u);
  }
}

// A shard_size below the lane word must still run — and, because the
// clamp lands on the same 64-trace granule for every width, produce the
// exact stream shard_size = 64 produces, at every compiled-in width.
TEST(CampaignShardSizeTest, SubLaneWordBlockSizeRunsAndMatchesClamp) {
  const RoundSpec round = present_round(1, LogicStyle::kSablEnhanced);
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 200;
  options.key = {0x6};
  options.seed = 0xC1A4;
  options.shard_size = 64;
  const TraceSet reference = engine.run(options);
  for (std::size_t width : runtime_lane_widths()) {
    options.lane_width = width;
    options.shard_size = 3;  // smaller than every lane width
    const TraceSet traces = engine.run(options);
    ASSERT_EQ(traces.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(traces.samples[i], reference.samples[i])
          << "width " << width << " trace " << i;
    }
  }
}

}  // namespace
}  // namespace sable
