// Tests for the batched bit-parallel trace engine and the streaming
// attack accumulators: 64-wide simulation must be bit-exact against the
// scalar simulators, and one-pass CPA/DoM/MTD must reproduce the batch
// attack results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cell/builder.hpp"
#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "crypto/target.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "dpa/streaming.hpp"
#include "dpa_reference.hpp"
#include "engine/trace_engine.hpp"
#include "expr/random_expr.hpp"
#include "expr/truth_table.hpp"
#include "retained_campaign.hpp"
#include "switchsim/energy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();
constexpr std::size_t kLanes = SablGateSimBatch::kLanes;

// Lane words for 64 scalar assignments: word[v] bit L = bit v of plan[L].
std::vector<std::uint64_t> lane_words(const std::vector<std::uint64_t>& plan,
                                      std::size_t num_vars) {
  std::vector<std::uint64_t> words(num_vars, 0);
  pack_lane_words(plan.data(), plan.size(), words);
  return words;
}

TEST(BatchGateSimTest, LanesMatchScalarGateOnRandomNetworks) {
  Rng rng(0xBA7C);
  for (int round = 0; round < 6; ++round) {
    RandomExprOptions options;
    options.num_vars = 3;
    options.num_literals = 5;
    const ExprPtr f = random_nnf(rng, options);
    const DpdnNetwork net = round % 2 == 0
                                ? synthesize_fc_dpdn(f, options.num_vars)
                                : build_genuine_dpdn(f, options.num_vars);
    const SizingPlan sizing = SizingPlan::defaults(kTech);
    const GateEnergyModel model = build_gate_model(net, kTech, sizing);

    SablGateSimBatch batch(net, model);
    std::vector<SablGateSim> scalars;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalars.emplace_back(net, model);
    }

    for (int cycle = 0; cycle < 4; ++cycle) {
      std::vector<std::uint64_t> plan(kLanes);
      for (auto& a : plan) a = rng.below(std::uint64_t{1} << options.num_vars);
      double energy[kLanes];
      batch.cycle(lane_words(plan, options.num_vars), ~std::uint64_t{0},
                  energy);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        EXPECT_EQ(energy[lane], scalars[lane].cycle(plan[lane]))
            << "round " << round << " cycle " << cycle << " lane " << lane;
      }
      // Charge state must agree per lane too (the §2 memory effect).
      for (NodeId n = 0; n < net.node_count(); ++n) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          EXPECT_EQ((batch.node_state_words()[n] >> lane) & 1u,
                    scalars[lane].node_state()[n] ? 1u : 0u);
        }
      }
    }
  }
}

// One randomized circuit shared by the circuit-level bit-exactness tests.
GateCircuit random_circuit(Rng& rng, std::size_t num_vars,
                           NetworkVariant variant) {
  RandomExprOptions options;
  options.num_vars = num_vars;
  options.num_literals = 7;
  std::vector<ExprPtr> outputs;
  for (int i = 0; i < 3; ++i) outputs.push_back(random_nnf(rng, options));
  return build_from_expressions(outputs, num_vars, variant, kTech);
}

TEST(BatchCircuitSimTest, DifferentialLanesMatchScalar) {
  Rng rng(0x51AB);
  for (int round = 0; round < 3; ++round) {
    const auto variant =
        round == 0 ? NetworkVariant::kGenuine : NetworkVariant::kFullyConnected;
    const GateCircuit circuit = random_circuit(rng, 4, variant);
    DifferentialCircuitSimBatch batch(circuit);
    std::vector<DifferentialCircuitSim> scalars;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalars.emplace_back(circuit);
    }
    BatchCycleResult out;
    for (int cycle = 0; cycle < 3; ++cycle) {
      std::vector<std::uint64_t> plan(kLanes);
      for (auto& a : plan) a = rng.below(16);
      batch.cycle(lane_words(plan, 4), ~std::uint64_t{0}, out);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const CycleResult ref = scalars[lane].cycle(plan[lane]);
        EXPECT_EQ(out.energy[lane], ref.energy) << lane;
        std::uint64_t outputs = 0;
        for (std::size_t i = 0; i < out.output_words.size(); ++i) {
          outputs |= ((out.output_words[i] >> lane) & 1u) << i;
        }
        EXPECT_EQ(outputs, ref.outputs) << lane;
        EXPECT_EQ(outputs, evaluate_circuit(circuit, plan[lane])) << lane;
      }
    }
  }
}

TEST(BatchCircuitSimTest, CmosLanesCarryIndependentHistory) {
  Rng rng(0xC305);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  CmosCircuitSimBatch batch(circuit, e_sw);
  std::vector<CmosCircuitSim> scalars;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    scalars.emplace_back(circuit, e_sw);
  }
  BatchCycleResult out;
  // Several cycles: Hamming-distance energy depends on each lane's own
  // previous values, so agreement here proves the histories do not mix.
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<std::uint64_t> plan(kLanes);
    for (auto& a : plan) a = rng.below(16);
    batch.cycle(lane_words(plan, 4), ~std::uint64_t{0}, out);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const CycleResult ref = scalars[lane].cycle(plan[lane]);
      EXPECT_EQ(out.energy[lane], ref.energy)
          << "cycle " << cycle << " lane " << lane;
    }
  }
}

TEST(BatchCircuitSimTest, WddlLanesMatchScalar) {
  Rng rng(0x3DD1);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  WddlCircuitSimBatch batch(circuit, kTech, 0.05);
  std::vector<WddlCircuitSim> scalars;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    scalars.emplace_back(circuit, kTech, 0.05);
  }
  BatchCycleResult out;
  std::vector<std::uint64_t> plan(kLanes);
  for (auto& a : plan) a = rng.below(16);
  batch.cycle(lane_words(plan, 4), ~std::uint64_t{0}, out);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(out.energy[lane], scalars[lane].cycle(plan[lane]).energy)
        << lane;
  }
}

TEST(BatchCircuitSimTest, CmosCycleSampledSplitsCycleEnergyByLevel) {
  Rng rng(0xC355);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  // Twin sims fed the same sequence: the sampled rows must carry exactly
  // the cycle energy, split across the circuit's logic levels, with the
  // same per-lane transition history.
  CmosCircuitSimBatch whole(circuit, e_sw);
  CmosCircuitSimBatch sampled_sim(circuit, e_sw);
  ASSERT_GT(sampled_sim.num_levels(), 0u);
  BatchCycleResult out;
  SampledBatchCycleResult sampled;
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::vector<std::uint64_t> plan(kLanes);
    for (auto& a : plan) a = rng.below(16);
    const auto words = lane_words(plan, 4);
    whole.cycle(words, ~std::uint64_t{0}, out);
    sampled_sim.cycle_sampled(words, ~std::uint64_t{0}, sampled);
    ASSERT_EQ(sampled.level_energy.size(), sampled_sim.num_levels());
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      double sum = 0.0;
      for (const auto& row : sampled.level_energy) sum += row[lane];
      EXPECT_NEAR(sum, out.energy[lane], 1e-12 * (out.energy[lane] + 1e-30))
          << "cycle " << cycle << " lane " << lane;
    }
    ASSERT_EQ(sampled.output_words.size(), out.output_words.size());
    for (std::size_t i = 0; i < out.output_words.size(); ++i) {
      EXPECT_EQ(sampled.output_words[i], out.output_words[i]) << i;
    }
  }
}

TEST(BatchCircuitSimTest, WddlCycleSampledSplitsCycleEnergyByLevel) {
  Rng rng(0x3DD5);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  WddlCircuitSimBatch whole(circuit, kTech, 0.05);
  WddlCircuitSimBatch sampled_sim(circuit, kTech, 0.05);
  ASSERT_GT(sampled_sim.num_levels(), 0u);
  BatchCycleResult out;
  SampledBatchCycleResult sampled;
  std::vector<std::uint64_t> plan(kLanes);
  for (auto& a : plan) a = rng.below(16);
  const auto words = lane_words(plan, 4);
  whole.cycle(words, ~std::uint64_t{0}, out);
  sampled_sim.cycle_sampled(words, ~std::uint64_t{0}, sampled);
  ASSERT_EQ(sampled.level_energy.size(), sampled_sim.num_levels());
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    double sum = 0.0;
    for (const auto& row : sampled.level_energy) sum += row[lane];
    EXPECT_NEAR(sum, out.energy[lane], 1e-12 * (out.energy[lane] + 1e-30))
        << lane;
  }

  // A perfectly balanced back-end leaks nothing into the time axis either:
  // every level's row is data-independent (equal across lanes).
  WddlCircuitSimBatch balanced(circuit, kTech, 0.0);
  balanced.cycle_sampled(words, ~std::uint64_t{0}, sampled);
  for (const auto& row : sampled.level_energy) {
    for (std::size_t lane = 1; lane < kLanes; ++lane) {
      EXPECT_EQ(row[lane], row[0]) << lane;
    }
  }
}

TEST(BatchCircuitSimTest, PartialLaneMaskLeavesOtherLanesUntouched) {
  Rng rng(0x9A5C);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  CmosCircuitSimBatch batch(circuit, e_sw);
  CmosCircuitSim scalar(circuit, e_sw);
  BatchCycleResult out;
  // Lane 0 runs a 3-cycle sequence under a width-1 mask while the word
  // carries garbage in the other lanes; the result must track the scalar.
  for (std::uint64_t a : {0b1010ull, 0b0101ull, 0b1010ull}) {
    std::vector<std::uint64_t> words(4, 0);
    for (std::size_t v = 0; v < 4; ++v) {
      words[v] = ((a >> v) & 1u) | (rng.next() << 1);
    }
    batch.cycle(words, 1u, out);
    EXPECT_EQ(out.energy[0], scalar.cycle(a).energy);
  }
}

TEST(EnergyProfileTest, BatchProfileMatchesPerAssignmentSimulation) {
  Rng rng(0x00F1);
  RandomExprOptions options;
  options.num_vars = 4;
  options.num_literals = 6;
  const ExprPtr f = random_nnf(rng, options);
  const DpdnNetwork net = build_genuine_dpdn(f, options.num_vars);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const GateEnergyModel model = build_gate_model(net, kTech, sizing);
  const EnergyProfile profile = profile_gate_energy(net, model);
  ASSERT_EQ(profile.energy_per_input.size(), 16u);
  for (std::size_t a = 0; a < 16; ++a) {
    SablGateSim sim(net, model);
    sim.cycle(a);
    EXPECT_EQ(profile.energy_per_input[a], sim.cycle(a)) << a;
  }
}

// ---- streaming accumulators ----------------------------------------------

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

TEST(StreamingCpaTest, MatchesTwoPassPearson) {
  const TraceSet traces = cmos_traces(3000, 0xB, 0x7EA5);
  const SboxSpec spec = present_spec();
  for (PowerModel model :
       {PowerModel::kHammingWeight, PowerModel::kSboxOutputBit}) {
    StreamingCpa acc(spec, model, 1);
    acc.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
    const AttackResult streamed = acc.result();
    const std::vector<double> reference =
        reference::cpa_scores(traces, spec, model, 1);
    ASSERT_EQ(streamed.score.size(), reference.size());
    for (std::size_t g = 0; g < reference.size(); ++g) {
      EXPECT_NEAR(streamed.score[g], reference[g], 1e-12) << g;
    }
  }
}

TEST(StreamingCpaTest, SplitFeedEqualsSingleFeed) {
  const TraceSet traces = cmos_traces(1000, 0x4, 0x5717);
  const SboxSpec spec = present_spec();
  StreamingCpa whole(spec, PowerModel::kHammingWeight);
  whole.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
  StreamingCpa split(spec, PowerModel::kHammingWeight);
  split.add_block(traces.plaintexts.data(), traces.samples.data(), 311);
  split.add_block(traces.plaintexts.data() + 311, traces.samples.data() + 311,
                  traces.size() - 311);
  // Block boundaries fix the summation order, so a split feed rounds
  // differently from one block — by ~1e-15 here, far inside the
  // pipeline's 1e-12 accuracy budget; the merged moments are exact in
  // count.
  EXPECT_EQ(split.count(), whole.count());
  const AttackResult a = whole.result();
  const AttackResult b = split.result();
  for (std::size_t g = 0; g < a.score.size(); ++g) {
    EXPECT_NEAR(a.score[g], b.score[g], 1e-13) << g;
  }
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(StreamingDomTest, MatchesPartitionMeans) {
  const TraceSet traces = cmos_traces(2000, 0x6, 0xD0D0);
  const SboxSpec spec = present_spec();
  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    StreamingDom acc(spec, bit);
    acc.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
    const AttackResult streamed = acc.result();
    const std::vector<double> expected =
        reference::dom_scores(traces, spec, bit);
    // DoM scores are ~1e-15 J mean differences of ~1e-13 J samples: the
    // oracle's raw partition sums cancel ~7 bits the shifted accumulator
    // keeps, so the tolerance is relative to the score scale.
    const double scale =
        *std::max_element(expected.begin(), expected.end());
    for (std::size_t g = 0; g < streamed.score.size(); ++g) {
      EXPECT_NEAR(streamed.score[g], expected[g], 1e-12 * scale) << g;
    }
  }
}

TEST(StreamingMultiCpaTest, MatchesPerColumnTwoPass) {
  const SboxSpec spec = present_spec();
  SboxTarget target(spec, LogicStyle::kSablGenuine, kTech);
  DifferentialCircuitSim sim(target.circuit());
  Rng rng(0x90FF);
  const std::uint8_t key = 0x9;
  MultiTraceSet traces;
  for (std::size_t i = 0; i < 1500; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    SampledCycleResult cycle =
        sim.cycle_sampled(static_cast<std::uint8_t>(pt ^ key));
    for (auto& v : cycle.level_energy) v += 1e-16 * rng.gaussian();
    traces.add(pt, cycle.level_energy);
  }
  const MultiAttackResult streamed =
      cpa_attack_multisample(traces, spec, PowerModel::kHammingWeight);
  const std::vector<double> combined =
      reference::multi_cpa_scores(traces, spec, PowerModel::kHammingWeight);
  for (std::size_t g = 0; g < combined.size(); ++g) {
    EXPECT_NEAR(streamed.combined.score[g], combined[g], 1e-12) << g;
  }
}

TEST(AttackResultTest, RankOfBreaksTiesByGuessIndex) {
  AttackResult result = make_attack_result({0.5, 0.5, 0.1, 0.5});
  EXPECT_EQ(result.best_guess, 0u);
  EXPECT_EQ(result.rank_of(0), 0u);
  EXPECT_EQ(result.rank_of(1), 1u);
  EXPECT_EQ(result.rank_of(3), 2u);
  EXPECT_EQ(result.rank_of(2), 3u);
}

// ---- engine ---------------------------------------------------------------

TEST(TraceEngineTest, CampaignMatchesScalarTarget) {
  // History-free styles: every lane computes the same energy a scalar
  // simulation of the same plaintext would, so an engine campaign must be
  // bit-identical to a scalar loop fed the same shard-derived
  // plaintext/noise streams in shard order.
  for (LogicStyle style :
       {LogicStyle::kSablFullyConnected, LogicStyle::kSablGenuine,
        LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options;
    options.num_traces = 500;
    options.key = {0x7};
    options.noise_sigma = 2e-16;
    options.seed = 0xFEED;
    options.shard_size = 128;  // several shards, one partial tail shard
    const TraceSet traces = retained_campaign(engine, options);
    ASSERT_EQ(traces.size(), options.num_traces);

    // The stream is defined shard by shard: shard s draws plaintexts and
    // noise from campaign_shard_seed(seed, s, ·) and starts from fresh
    // simulator state, independent of every other shard.
    const std::size_t shard_size = campaign_shard_size(options);
    ASSERT_EQ(shard_size, 128u);
    SboxTarget reference(present_spec(), style, kTech);
    Rng no_noise(0);
    for (std::size_t start = 0, shard = 0; start < options.num_traces;
         start += shard_size, ++shard) {
      const std::size_t count =
          std::min(shard_size, options.num_traces - start);
      Rng pt_rng(campaign_shard_seed(options.seed, shard, 0));
      Rng noise_rng(campaign_shard_seed(options.seed, shard, 1));
      reference.reset_state();
      for (std::size_t i = 0; i < count; ++i) {
        const auto pt = static_cast<std::uint8_t>(pt_rng.below(16));
        EXPECT_EQ(traces.plaintexts[start + i], pt);
        const double energy = reference.trace(pt, options.key[0], 0.0, no_noise);
        const double noise = options.noise_sigma * noise_rng.gaussian();
        EXPECT_EQ(traces.samples[start + i], energy + noise) << start + i;
      }
    }

    // The thread count is a pure performance knob: any worker count
    // reproduces the identical trace sequence.
    for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
      TraceEngine engine2(present_spec(), style, kTech);
      CampaignOptions parallel = options;
      parallel.num_threads = threads;
      const TraceSet traces2 = retained_campaign(engine2, parallel);
      ASSERT_EQ(traces2.size(), traces.size());
      for (std::size_t i = 0; i < traces.size(); ++i) {
        EXPECT_EQ(traces2.plaintexts[i], traces.plaintexts[i]);
        EXPECT_EQ(traces2.samples[i], traces.samples[i]) << i;
      }
    }
  }
}

TEST(TraceEngineTest, CmosCampaignMatchesPerLaneScalarHistory) {
  // Static CMOS leaks through per-instance history: lane L of the engine
  // is a scalar simulator fed every 64th plaintext.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 256;
  options.key = {0x3};
  options.noise_sigma = 0.0;
  options.seed = 0xCAFE;
  const TraceSet traces = retained_campaign(engine, options);

  // 256 traces fit one default-size shard, so the whole campaign draws
  // from shard 0's plaintext stream.
  Rng rng(campaign_shard_seed(options.seed, 0, 0));
  std::vector<std::uint8_t> pts(options.num_traces);
  for (auto& pt : pts) pt = static_cast<std::uint8_t>(rng.below(16));
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    SboxTarget reference(present_spec(), LogicStyle::kStaticCmos, kTech);
    Rng no_noise(0);
    for (std::size_t t = lane; t < options.num_traces; t += kLanes) {
      EXPECT_EQ(traces.plaintexts[t], pts[t]);
      EXPECT_EQ(traces.samples[t],
                reference.trace(pts[t], options.key[0], 0.0, no_noise))
          << "lane " << lane << " trace " << t;
    }
  }
}

TEST(TraceEngineTest, StreamingCampaignEqualsRetainedCampaign) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 2000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0xABBA;
  // One shard keeps the comparison to a single block; the campaign's
  // block-factored accumulation still rounds differently than the
  // retained two-pass Pearson attack, so the scores agree to the
  // pipeline's documented <= 1e-12 budget rather than bit-exactly.
  options.shard_size = 4096;
  const TraceSet traces = retained_campaign(engine, options);
  const std::vector<double> batch = reference::cpa_scores(
      traces, present_spec(), PowerModel::kHammingWeight);

  const AttackSelector hw{.model = PowerModel::kHammingWeight};
  TraceEngine engine2(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackResult streamed =
      engine2.attack(options, CpaDistinguisher(present_spec(), hw));
  ASSERT_EQ(streamed.score.size(), batch.size());
  for (std::size_t g = 0; g < batch.size(); ++g) {
    EXPECT_NEAR(streamed.score[g], batch[g], 1e-12) << g;
  }
  EXPECT_EQ(streamed.best_guess, options.key[0]);

  // And the one-pass MTD campaign agrees with the prefix oracle over the
  // retained traces, checkpoint by checkpoint.
  TraceEngine engine3(present_spec(), LogicStyle::kStaticCmos, kTech);
  const auto checkpoints = default_checkpoints(options.num_traces);
  const MtdResult streamed_mtd = engine3.attack(
      options, MtdDistinguisher(present_spec(), hw,
                                engine3.round().sub_word(options.key.data(), 0),
                                checkpoints, options.num_traces));
  const MtdResult prefix = reference::cpa_prefix_mtd(
      traces, options.key[0], checkpoints, present_spec(),
      PowerModel::kHammingWeight);
  EXPECT_EQ(streamed_mtd.disclosed, prefix.disclosed);
  EXPECT_EQ(streamed_mtd.mtd, prefix.mtd);
  EXPECT_EQ(streamed_mtd.rank_history, prefix.rank_history);
}

TEST(TraceEngineTest, RepeatedCampaignsOnOneEngineAreReproducible) {
  // Static CMOS carries per-lane history; stream() must reset it so the
  // same seed yields the same traces no matter what ran before.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 300;
  options.key = {0x9};
  options.noise_sigma = 0.0;
  options.seed = 0xD1CE;
  const TraceSet first = retained_campaign(engine, options);
  CampaignOptions other = options;
  other.seed = 0xBEEF;  // interleave a campaign with a different stream
  retained_campaign(engine, other);
  const TraceSet second = retained_campaign(engine, options);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.plaintexts[i], second.plaintexts[i]);
    EXPECT_EQ(first.samples[i], second.samples[i]) << i;
  }
}

TEST(TraceEngineTest, NonFiniteNoiseSigmaThrowsAtEveryEntryPoint) {
  // A NaN or infinite sigma is rejected up front, before any shard is
  // simulated or any sink called; a negative one still runs.
  TraceEngine engine(present_spec(), LogicStyle::kSablEnhanced, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const auto sink = [](const std::uint8_t*, const double*, std::size_t) {
    ADD_FAILURE() << "sink called for a rejected campaign";
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double sigma : {std::nan(""), inf, -inf}) {
    SCOPED_TRACE("sigma " + std::to_string(sigma));
    CampaignOptions options;
    options.num_traces = 200;
    options.key = {0x3};
    options.noise_sigma = sigma;
    EXPECT_THROW(retained_campaign(engine, options), InvalidArgument);
    EXPECT_THROW(engine.stream(options, sink), InvalidArgument);
    EXPECT_THROW(engine.stream_sampled(options, sink), InvalidArgument);
    CpaDistinguisher cpa(present_spec(), selector);
    Distinguisher* const list[] = {&cpa};
    EXPECT_THROW(engine.run_distinguishers(options, list), InvalidArgument);
  }
  CampaignOptions negative;
  negative.num_traces = 200;
  negative.key = {0x3};
  negative.noise_sigma = -1e-16;
  EXPECT_EQ(retained_campaign(engine, negative).size(), 200u);
}

TEST(TraceEngineTest, ConstantPowerStylesStayFlatAtScale) {
  TraceEngine engine(present_spec(), LogicStyle::kSablFullyConnected, kTech);
  CampaignOptions options;
  options.num_traces = 4000;
  options.key = {0x5};
  options.noise_sigma = 1e-16;
  options.seed = 0x5AB1;
  const AttackResult result =
      engine.attack(options,
                    CpaDistinguisher(present_spec(),
                                     AttackSelector{
                                         .model = PowerModel::kHammingWeight}));
  EXPECT_LT(result.score[result.best_guess], 0.1);
}

// Workers are cloned from the engine's target per campaign; a campaign
// after others on the same engine (CMOS table-lane history included)
// must match a fresh engine's, for trace and attack campaigns alike.
TEST(TraceEngineTest, ReusedEngineMatchesFreshEngine) {
  TraceEngine reused(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions first;
  first.num_traces = 500;
  first.key = {0x3};
  first.seed = 0xAAAA;
  retained_campaign(reused, first);

  CampaignOptions second;
  second.num_traces = 1500;
  second.key = {0xB};
  second.noise_sigma = 2e-16;
  second.seed = 0x5EED;
  second.shard_size = 448;  // several shards, one partial tail
  const TraceSet pooled = retained_campaign(reused, second);
  TraceEngine fresh(present_spec(), LogicStyle::kStaticCmos, kTech);
  const TraceSet reference = retained_campaign(fresh, second);
  ASSERT_EQ(pooled.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(pooled.samples[t], reference.samples[t]) << t;
  }

  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const AttackResult pooled_cpa =
      reused.attack(second, CpaDistinguisher(present_spec(), selector));
  const AttackResult fresh_cpa =
      fresh.attack(second, CpaDistinguisher(present_spec(), selector));
  ASSERT_EQ(pooled_cpa.score.size(), fresh_cpa.score.size());
  for (std::size_t g = 0; g < fresh_cpa.score.size(); ++g) {
    EXPECT_EQ(pooled_cpa.score[g], fresh_cpa.score[g]) << g;
  }
}

TEST(TraceEngineTest, SampledRowsSumToStreamedSamplesEveryStyle) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    const std::size_t width = engine.target().num_levels();
    ASSERT_GT(width, 0u) << to_string(style);
    CampaignOptions options;
    options.num_traces = 320;
    options.key = {0x9};
    options.seed = 0xE4E4;
    options.shard_size = 128;
    std::vector<double> row_sums;
    engine.stream_sampled(options, [&](const std::uint8_t*,
                                       const double* rows, std::size_t n) {
      for (std::size_t t = 0; t < n; ++t) {
        double sum = 0.0;
        for (std::size_t l = 0; l < width; ++l) sum += rows[t * width + l];
        row_sums.push_back(sum);
      }
    });
    const TraceSet traces = retained_campaign(engine, options);
    ASSERT_EQ(row_sums.size(), traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
      EXPECT_NEAR(row_sums[t], traces.samples[t],
                  1e-12 * std::fabs(traces.samples[t]) + 1e-30)
          << to_string(style) << " trace " << t;
    }
  }
}

}  // namespace
}  // namespace sable
