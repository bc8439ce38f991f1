// Failure injection into the campaign schedulers and persistence:
//
//  * a sink that throws mid-stream propagates out of a multi-threaded
//    stream() without hanging, and leaves the engine reusable — its next
//    stream() is bit-identical to a fresh engine's;
//  * a distinguisher whose accumulator throws on one shard of a
//    checkpointed campaign leaves the previous wave's checkpoint
//    published byte for byte, and resuming from it without the fault
//    reproduces one uninterrupted run — finalized results AND final
//    state bytes — live and through corpus replay alike.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/round_target.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"
#include "io/replay.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

struct InjectedFault : std::runtime_error {
  InjectedFault() : std::runtime_error("injected fault") {}
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "failure_injection_" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// 6000 traces over 448-trace shards: 14 shards with a ragged tail, so a
// 4-thread stream runs several waves and checkpoints of 4 shards leave a
// short last wave.
CampaignOptions fault_options(std::size_t threads) {
  CampaignOptions options;
  options.num_traces = 6000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0xFA17;
  options.shard_size = 448;
  options.num_threads = threads;
  return options;
}

// Everything a stream hands its sink, in emission order.
struct Streamed {
  std::vector<std::uint8_t> pts;
  std::vector<std::uint64_t> samples;  // bit patterns
  std::size_t blocks = 0;
};

Streamed stream_all(TraceEngine& engine, const CampaignOptions& options) {
  Streamed out;
  engine.stream(options, [&](const std::uint8_t* pts, const double* samples,
                             std::size_t count) {
    out.pts.insert(out.pts.end(), pts, pts + count);
    for (std::size_t t = 0; t < count; ++t) {
      out.samples.push_back(std::bit_cast<std::uint64_t>(samples[t]));
    }
    ++out.blocks;
  });
  return out;
}

TEST(FailureInjectionTest, SinkFaultPropagatesAndEngineStaysReusable) {
  const CampaignOptions options = fault_options(4);
  const std::size_t shards = 14;
  TraceEngine fresh(present_round(1, LogicStyle::kSablEnhanced), kTech);
  const Streamed expected = stream_all(fresh, options);
  ASSERT_EQ(expected.blocks, shards);

  TraceEngine engine(present_round(1, LogicStyle::kSablEnhanced), kTech);
  for (std::size_t fault : {std::size_t{0}, std::size_t{5}, shards - 1}) {
    std::size_t emitted = 0;
    EXPECT_THROW(engine.stream(options,
                               [&](const std::uint8_t*, const double*,
                                   std::size_t) {
                                 if (emitted == fault) throw InjectedFault();
                                 ++emitted;
                               }),
                 InjectedFault);
    // The sink saw the canonical prefix and nothing after the fault.
    EXPECT_EQ(emitted, fault);
    const Streamed again = stream_all(engine, options);
    EXPECT_EQ(again.blocks, expected.blocks) << "fault at shard " << fault;
    EXPECT_EQ(again.pts, expected.pts) << "fault at shard " << fault;
    EXPECT_EQ(again.samples, expected.samples) << "fault at shard " << fault;
  }
}

// Accumulator of FaultyDistinguisher: delegates to the wrapped
// distinguisher's accumulator, except that it throws on the block that
// starts at trace `fault_start`.
class FaultyAccumulator final : public ShardAccumulator {
 public:
  FaultyAccumulator(std::unique_ptr<ShardAccumulator> inner,
                    std::size_t fault_start)
      : inner_(std::move(inner)), fault_start_(fault_start) {}

  void accumulate(const ShardBlock& block) override {
    if (block.start == fault_start_) throw InjectedFault();
    inner_->accumulate(block);
  }
  void merge(ShardAccumulator& other) override {
    inner_->merge(*static_cast<FaultyAccumulator&>(other).inner_);
  }
  void save(ByteWriter& writer) const override { inner_->save(writer); }
  void load(ByteReader& reader) override { inner_->load(reader); }

  ShardAccumulator& inner() { return *inner_; }

 private:
  std::unique_ptr<ShardAccumulator> inner_;
  std::size_t fault_start_;
};

constexpr std::size_t kNoFault = std::numeric_limits<std::size_t>::max();

// Test-only distinguisher: `inner` with a fault injected into its shard
// accumulators (none for kNoFault). Saved states are the inner ones, so
// faulty and clean runs share checkpoint files.
class FaultyDistinguisher final : public Distinguisher {
 public:
  FaultyDistinguisher(Distinguisher& inner, std::size_t fault_start)
      : inner_(inner), fault_start_(fault_start) {}

  TraceDataKind data_kind() const override { return inner_.data_kind(); }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  bool ordered() const override { return inner_.ordered(); }
  void validate(const RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<FaultyAccumulator>(
        inner_.make_shard_accumulator(), fault_start_);
  }
  void finalize(ShardAccumulator& root) override {
    inner_.finalize(static_cast<FaultyAccumulator&>(root).inner());
  }

 private:
  Distinguisher& inner_;
  std::size_t fault_start_;
};

// CPA behind the fault, DoM beside it and the ordered MTD fold, so the
// resumed reduction covers both reduction shapes.
struct AttackSet {
  AttackSet(const TraceEngine& engine, const CampaignOptions& options,
            std::size_t fault_start)
      : cpa(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight}),
        dom(engine.spec(),
            AttackSelector{.model = PowerModel::kHammingWeight, .bit = 1}),
        mtd(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight},
            options.key[0], default_checkpoints(options.num_traces),
            options.num_traces),
        faulty(cpa, fault_start),
        list{&faulty, &dom, &mtd} {}

  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  FaultyDistinguisher faulty;
  Distinguisher* list[3];
};

void expect_same_results(const AttackSet& a, const AttackSet& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t g = 0; g < x.size(); ++g) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x[g]),
                std::bit_cast<std::uint64_t>(y[g]))
          << "guess " << g;
    }
  };
  same(a.cpa.result().score, b.cpa.result().score);
  same(a.dom.result().score, b.dom.result().score);
  EXPECT_EQ(a.mtd.result().rank_history, b.mtd.result().rank_history);
  EXPECT_EQ(a.mtd.result().mtd, b.mtd.result().mtd);
  EXPECT_EQ(a.mtd.result().disclosed, b.mtd.result().disclosed);
}

// Drives one campaign either live or by replaying `corpus` (when set).
bool drive(TraceEngine& engine, const CampaignOptions& options,
           const CorpusReader* corpus, AttackSet& set,
           const CampaignPersistence& persist) {
  if (corpus != nullptr) {
    return engine.replay(*corpus, set.list, persist, options.num_threads);
  }
  return engine.run_distinguishers(options, set.list, persist);
}

// Fault in shard 6 of waves {0-3}, {4-7}, {8-11}, {12-13}: the throw
// lands in the second wave, so the first wave's checkpoint must survive.
void check_fault_then_resume(const CorpusReader* corpus,
                             std::size_t threads) {
  SCOPED_TRACE(corpus ? "replay" : "live");
  SCOPED_TRACE("threads " + std::to_string(threads));
  const CampaignOptions options = fault_options(threads);
  constexpr std::size_t kEvery = 4;
  const std::size_t fault_start = 6 * options.shard_size;
  TraceEngine engine(present_round(1, LogicStyle::kStaticCmos), kTech);

  // One uninterrupted checkpointed run, and the checkpoint its first wave
  // publishes (the same shards covered as a range run).
  AttackSet reference(engine, options, kNoFault);
  CampaignPersistence persist;
  persist.checkpoint_every_shards = kEvery;
  persist.checkpoint_path = temp_path("reference.state");
  ASSERT_TRUE(drive(engine, options, corpus, reference, persist));
  const auto reference_state = read_file(persist.checkpoint_path);
  {
    AttackSet first_wave(engine, options, kNoFault);
    CampaignPersistence range = persist;
    range.checkpoint_path = temp_path("first_wave.state");
    range.shard_end = kEvery;
    ASSERT_FALSE(drive(engine, options, corpus, first_wave, range));
  }
  const auto first_wave_state = read_file(temp_path("first_wave.state"));

  AttackSet faulty(engine, options, fault_start);
  persist.checkpoint_path = temp_path("faulty.state");
  EXPECT_THROW(drive(engine, options, corpus, faulty, persist), InjectedFault);
  EXPECT_EQ(read_file(persist.checkpoint_path), first_wave_state);

  AttackSet resumed(engine, options, kNoFault);
  persist.resume_path = persist.checkpoint_path;
  persist.checkpoint_path = temp_path("resumed.state");
  ASSERT_TRUE(drive(engine, options, corpus, resumed, persist));
  expect_same_results(resumed, reference);
  EXPECT_EQ(read_file(persist.checkpoint_path), reference_state);
}

TEST(FailureInjectionTest, AccumulatorFaultKeepsCheckpointAndResumesLive) {
  for (std::size_t threads : {1, 4}) {
    check_fault_then_resume(nullptr, threads);
  }
}

TEST(FailureInjectionTest, AccumulatorFaultKeepsCheckpointAndResumesReplay) {
  TraceEngine recorder(present_round(1, LogicStyle::kStaticCmos), kTech);
  const std::string path = temp_path("fault.corpus");
  recorder.record(fault_options(4), TraceDataKind::kScalar, path);
  const CorpusReader corpus(path);
  for (std::size_t threads : {1, 4}) {
    check_fault_then_resume(&corpus, threads);
  }
}

}  // namespace
}  // namespace sable
