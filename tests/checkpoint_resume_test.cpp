// Checkpoint/resume determinism: a campaign interrupted after K shards
// and resumed from its checkpoint file must be bit-identical to the
// uninterrupted run — across thread counts, for the scalar
// distinguishers AND the ordered MTD fold. This holds only
// because checkpoints store RAW per-shard accumulator states: with 7
// shards (non-power-of-2) the fixed-shape merge tree is NOT a left
// fold, so persisting merged prefixes would silently change the
// floating-point reduction order on resume.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sboxes.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

// 3000 traces over 448-trace shards: 7 shards with a ragged tail.
CampaignOptions resume_options() {
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;
  return options;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "checkpoint_resume_" + name;
}

void expect_same_scores(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[g]),
              std::bit_cast<std::uint64_t>(b[g]))
        << "guess " << g;
  }
}

struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
};

AttackSet make_attacks(const TraceEngine& engine,
                       const CampaignOptions& options) {
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  return AttackSet{
      CpaDistinguisher(engine.spec(), selector),
      DomDistinguisher(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight,
                                      .bit = 2}),
      MtdDistinguisher(engine.spec(), selector, options.key[0],
                       default_checkpoints(options.num_traces),
                       options.num_traces)};
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalAcrossThreads) {
  const CampaignOptions base = resume_options();

  // One reference, default threads: determinism says every configuration
  // below must reproduce it exactly.
  TraceEngine ref_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make_attacks(ref_engine, base);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  ref_engine.run_distinguishers(base, ref_list);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignOptions options = base;
    options.num_threads = threads;
    const std::string checkpoint = temp_path(std::to_string(threads));

    // Interrupt after 3 of 7 shards...
    {
      TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
      AttackSet set = make_attacks(engine, options);
      Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
      CampaignPersistence persist;
      persist.shard_end = 3;
      persist.checkpoint_path = checkpoint;
      EXPECT_FALSE(engine.run_distinguishers(options, list, persist));
    }
    // ...and resume the remainder in a fresh engine and fresh
    // distinguishers, as a restarted process would.
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    AttackSet set = make_attacks(engine, options);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    CampaignPersistence persist;
    persist.resume_path = checkpoint;
    EXPECT_TRUE(engine.run_distinguishers(options, list, persist));

    expect_same_scores(set.cpa.result().score, ref.cpa.result().score);
    expect_same_scores(set.dom.result().score, ref.dom.result().score);
    EXPECT_EQ(set.mtd.result().rank_history, ref.mtd.result().rank_history);
    EXPECT_EQ(set.mtd.result().mtd, ref.mtd.result().mtd);
  }
}

TEST(CheckpointResumeTest, PeriodicWaveCheckpointsDoNotPerturbTheRun) {
  const CampaignOptions options = resume_options();
  TraceEngine ref_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet ref = make_attacks(ref_engine, options);
  Distinguisher* const ref_list[] = {&ref.cpa, &ref.dom, &ref.mtd};
  ref_engine.run_distinguishers(options, ref_list);

  // Checkpoint every 2 shards: four waves, a state file rewritten after
  // each — the run still completes and matches exactly.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet set = make_attacks(engine, options);
  Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
  CampaignPersistence persist;
  persist.checkpoint_path = temp_path("waves");
  persist.checkpoint_every_shards = 2;
  EXPECT_TRUE(engine.run_distinguishers(options, list, persist));
  expect_same_scores(set.cpa.result().score, ref.cpa.result().score);
  expect_same_scores(set.dom.result().score, ref.dom.result().score);
  EXPECT_EQ(set.mtd.result().rank_history, ref.mtd.result().rank_history);

  // The final checkpoint covers everything: resuming from it does no
  // simulation work and reproduces the same results once more.
  TraceEngine resumed_engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet resumed = make_attacks(resumed_engine, options);
  Distinguisher* const resumed_list[] = {&resumed.cpa, &resumed.dom,
                                         &resumed.mtd};
  CampaignPersistence resume;
  resume.resume_path = persist.checkpoint_path;
  EXPECT_TRUE(
      resumed_engine.run_distinguishers(options, resumed_list, resume));
  expect_same_scores(resumed.cpa.result().score, ref.cpa.result().score);
  EXPECT_EQ(resumed.mtd.result().rank_history, ref.mtd.result().rank_history);
}

TEST(CheckpointResumeTest, ResumeRejectsAForeignCampaign) {
  CampaignOptions options = resume_options();
  const std::string checkpoint = temp_path("foreign");
  {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    AttackSet set = make_attacks(engine, options);
    Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
    CampaignPersistence persist;
    persist.shard_end = 3;
    persist.checkpoint_path = checkpoint;
    EXPECT_FALSE(engine.run_distinguishers(options, list, persist));
  }
  // Same spec, different noise sigma: a different trace stream, so the
  // checkpoint must be refused rather than silently mixed in.
  options.noise_sigma = 3e-16;
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  AttackSet set = make_attacks(engine, options);
  Distinguisher* const list[] = {&set.cpa, &set.dom, &set.mtd};
  CampaignPersistence persist;
  persist.resume_path = checkpoint;
  EXPECT_THROW(engine.run_distinguishers(options, list, persist),
               ManifestMismatchError);
}

}  // namespace
}  // namespace sable
