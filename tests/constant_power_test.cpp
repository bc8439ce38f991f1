// The constant-power invariant: resistance is a property of the circuit,
// not of one attack. A noiseless campaign on a balanced differential
// style (SABL with fully connected or enhanced networks, WDDL with a
// balanced back-end) draws the same energy every cycle, so every
// distinguisher must extract exactly nothing from it: CPA, DoM, every
// MTD checkpoint, time-resolved MultiCpa and second-order CPA score
// exactly 0.0 and rank the correct key by the index tie-break alone —
// live and replayed from recorded scalar and sampled corpora, under
// every dispatch tier the machine runs.
//
// Before any attack, the claim is checked exhaustively on the circuit
// itself: every instance's exact energy table (one entry per input, and
// per previous input where the style has history) must hold one scalar
// energy and one per-level row, bit for bit, with NED = NSD = 0 exactly —
// on the PRESENT S-box and on the AES S-box. The leaking styles pin how
// many distinct energies and rows their tables hold.
//
// Exact, not approximate: each accumulator shifts its samples by a
// sample it saw, so a constant stream leaves every shifted sum an exact
// 0.0 and no rounding residue can order the guesses. For second order
// that includes the centring: a block mean Σx/n of a constant column is
// not exactly x unless n is a power of two, so centring on it instead
// would leave residue the normalisation inflates to O(1e-2) scores over
// these ragged 448-trace shards.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/round_target.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "power/stats.hpp"
#include "util/cpu_dispatch.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

constexpr std::size_t kKey = 0x9;

// 3000 traces over 448-trace shards: 7 shards with a ragged tail, so the
// merge tree, the ordered MTD fold and in-shard checkpoints all run.
CampaignOptions noiseless_options(const RoundSpec& round) {
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = round.pack_subkeys({kKey});
  options.noise_sigma = 0.0;
  options.seed = 0xC0457;
  options.shard_size = 448;
  return options;
}

// One CPA, one DoM per output bit and one MTD over a campaign.
struct AttackSet {
  std::unique_ptr<CpaDistinguisher> cpa;
  std::vector<std::unique_ptr<DomDistinguisher>> dom;
  std::unique_ptr<MtdDistinguisher> mtd;
  std::vector<Distinguisher*> list;

  AttackSet(const RoundSpec& round, std::size_t num_traces) {
    const SboxSpec& spec = round.sboxes[0];
    const AttackSelector hw{.model = PowerModel::kHammingWeight};
    cpa = std::make_unique<CpaDistinguisher>(spec, hw);
    list.push_back(cpa.get());
    for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
      dom.push_back(std::make_unique<DomDistinguisher>(
          spec, AttackSelector{.bit = bit}));
      list.push_back(dom.back().get());
    }
    mtd = std::make_unique<MtdDistinguisher>(
        spec, hw, kKey, default_checkpoints(num_traces), num_traces);
    list.push_back(mtd.get());
  }
};

// The time-resolved attacks over per-level rows: MultiCpa and
// second-order CPA.
struct SampledAttackSet {
  std::unique_ptr<MultiCpaDistinguisher> multi;
  std::unique_ptr<SecondOrderCpaDistinguisher> second;
  std::vector<Distinguisher*> list;

  SampledAttackSet(const RoundSpec& round, std::size_t width) {
    const SboxSpec& spec = round.sboxes[0];
    const AttackSelector hw{.model = PowerModel::kHammingWeight};
    multi = std::make_unique<MultiCpaDistinguisher>(spec, hw, width);
    second = std::make_unique<SecondOrderCpaDistinguisher>(spec, hw);
    list = {multi.get(), second.get()};
  }
};

void expect_nothing_extracted(const AttackResult& result,
                              const std::string& what) {
  for (std::size_t g = 0; g < result.score.size(); ++g) {
    EXPECT_EQ(result.score[g], 0.0) << what << " guess " << g;
  }
  EXPECT_EQ(result.rank_of(kKey), kKey) << what;
}

void expect_nothing_extracted(const AttackSet& set, const std::string& what) {
  expect_nothing_extracted(set.cpa->result(), what + " CPA");
  for (std::size_t bit = 0; bit < set.dom.size(); ++bit) {
    expect_nothing_extracted(set.dom[bit]->result(),
                             what + " DoM bit " + std::to_string(bit));
  }
  const MtdResult& mtd = set.mtd->result();
  EXPECT_FALSE(mtd.disclosed) << what;
  ASSERT_FALSE(mtd.rank_history.empty()) << what;
  for (const auto& [count, rank] : mtd.rank_history) {
    EXPECT_EQ(rank, kKey) << what << " MTD checkpoint " << count;
  }
}

void expect_nothing_extracted(const SampledAttackSet& set,
                              const std::string& what) {
  expect_nothing_extracted(set.multi->result().combined, what + " MultiCpa");
  expect_nothing_extracted(set.second->result().combined,
                           what + " second-order CPA");
}

// Distinct scalar energies and distinct per-level rows over every entry
// of an instance's table, compared bit for bit.
struct DistinctEntries {
  std::size_t energies = 0;
  std::size_t rows = 0;
};

DistinctEntries distinct_entries(const EnergyTable& table) {
  std::set<std::uint64_t> energies;
  for (double e : table.energy) {
    energies.insert(std::bit_cast<std::uint64_t>(e));
  }
  std::set<std::vector<std::uint64_t>> rows;
  for (std::size_t entry = 0; entry < table.energy.size(); ++entry) {
    std::vector<std::uint64_t> row;
    for (std::size_t l = 0; l < table.levels; ++l) {
      row.push_back(
          std::bit_cast<std::uint64_t>(table.rows[entry * table.levels + l]));
    }
    rows.insert(row);
  }
  return {energies.size(), rows.size()};
}

class ConstantPowerTest : public testing::TestWithParam<LogicStyle> {};

TEST_P(ConstantPowerTest, EveryTableEntryIsBitwiseEqual) {
  for (const RoundSpec& round : {present_round(1, GetParam()),
                                 aes_subbytes_round(1, GetParam())}) {
    const RoundTarget target(round, kTech);
    const EnergyTable& table = target.energy_table(0);
    const std::string where = std::string(to_string(GetParam())) + " " +
                              std::to_string(table.inputs) + " inputs";
    ASSERT_EQ(table.energy.size(), table.history * table.inputs) << where;
    ASSERT_EQ(table.rows.size(), table.energy.size() * table.levels) << where;
    const DistinctEntries distinct = distinct_entries(table);
    EXPECT_EQ(distinct.energies, 1u) << where;
    EXPECT_EQ(distinct.rows, 1u) << where;
    const SpreadMetrics spread = spread_metrics(table.energy);
    EXPECT_EQ(spread.ned, 0.0) << where;
    EXPECT_EQ(spread.nsd, 0.0) << where;
  }
}

TEST_P(ConstantPowerTest, EveryDistinguisherScoresExactlyZero) {
  const RoundSpec round = present_round(1, GetParam());
  TraceEngine engine(round, kTech);
  CampaignOptions options = noiseless_options(round);
  const std::size_t levels = engine.target().num_levels();
  ASSERT_GE(levels, 2u);
  for (const DispatchTier tier : {DispatchTier::kPortable,
                                  DispatchTier::kAvx2,
                                  DispatchTier::kAvx512}) {
    ScopedDispatchTierCap cap(tier);
    const std::string where = std::string(to_string(GetParam())) +
                              " tier " + to_string(tier);

    // Live: scalar and time-resolved attacks share one campaign.
    AttackSet live(round, options.num_traces);
    SampledAttackSet live_sampled(round, levels);
    std::vector<Distinguisher*> all = live.list;
    all.insert(all.end(), live_sampled.list.begin(), live_sampled.list.end());
    engine.run_distinguishers(options, all);
    expect_nothing_extracted(live, where + " live");
    expect_nothing_extracted(live_sampled, where + " live");

    const std::string path = testing::TempDir() + "constant_power_" +
                             to_string(tier) + ".corpus";
    engine.record(options, TraceDataKind::kScalar, path);
    AttackSet replayed(round, options.num_traces);
    ASSERT_TRUE(engine.replay(CorpusReader(path), replayed.list));
    expect_nothing_extracted(replayed, where + " replayed");

    engine.record(options, TraceDataKind::kSampled, path);
    SampledAttackSet replayed_sampled(round, levels);
    ASSERT_TRUE(engine.replay(CorpusReader(path), replayed_sampled.list));
    expect_nothing_extracted(replayed_sampled, where + " replayed");
    std::remove(path.c_str());
  }
}

// The leaking styles' tables, pinned: distinct (scalar energies, rows)
// per PRESENT and AES S-box. Static CMOS counts run over (p, x) with p =
// none included — 17 * 16 and 257 * 256 entries.
TEST(LeakingTablesTest, DistinctEntryCountsArePinned) {
  struct Expected {
    LogicStyle style;
    DistinctEntries present;
    DistinctEntries aes;
  };
  for (const Expected& e :
       {Expected{LogicStyle::kSablGenuine, {9, 14}, {164, 256}},
        Expected{LogicStyle::kWddlMismatched, {16, 16}, {256, 256}},
        Expected{LogicStyle::kStaticCmos, {22, 196}, {359, 65537}}}) {
    const RoundTarget present(present_round(1, e.style), kTech);
    const DistinctEntries p = distinct_entries(present.energy_table(0));
    EXPECT_EQ(p.energies, e.present.energies) << to_string(e.style);
    EXPECT_EQ(p.rows, e.present.rows) << to_string(e.style);
    const RoundTarget aes(aes_subbytes_round(1, e.style), kTech);
    const DistinctEntries a = distinct_entries(aes.energy_table(0));
    EXPECT_EQ(a.energies, e.aes.energies) << to_string(e.style);
    EXPECT_EQ(a.rows, e.aes.rows) << to_string(e.style);
  }
}

INSTANTIATE_TEST_SUITE_P(BalancedStyles, ConstantPowerTest,
                         testing::Values(LogicStyle::kSablFullyConnected,
                                         LogicStyle::kSablEnhanced,
                                         LogicStyle::kWddlBalanced));

}  // namespace
}  // namespace sable
