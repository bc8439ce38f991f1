// SharedCorpus: the decoded-chunk cache serving N concurrent
// evaluations. The load-bearing claims under test: (1) concurrent
// evaluations replaying from one SharedCorpus decode each compressed
// chunk at most once between them (decode_count() is the witness, and
// the TSan CI job runs this binary); (2) shared-cache replay is
// bit-identical to plain CorpusReader replay; (3) raw corpora bypass
// the cache entirely (zero decodes, zero copies); (4) a bounded cache
// evicts and re-decodes instead of growing, and a corrupt chunk throws
// a typed error out of acquire() without wedging later acquirers; (5)
// the one-pass multi-set replay_shared is bit-identical to replaying
// each set alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"
#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "corpus_cache_" + name;
}

CampaignOptions small_options() {
  CampaignOptions options;
  options.num_traces = 3000;  // 7 shards of 448 with a ragged tail
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;
  return options;
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

// One recorded campaign per fixture instantiation, shared by the cases.
class SharedCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options_ = small_options();
    compressed_path_ = temp_path("compressed.corpus");
    engine.record(options_, TraceDataKind::kScalar, compressed_path_);
    raw_path_ = temp_path("raw.corpus");
    engine.record(options_, TraceDataKind::kScalar, raw_path_,
                  kCorpusCompressionNone, kCorpusVersion2);

    const AttackSelector selector{.model = PowerModel::kHammingWeight};
    CpaDistinguisher ref(engine.spec(), selector);
    Distinguisher* const list[] = {&ref};
    engine.run_distinguishers(options_, list);
    ref_scores_ = ref.result().score;
  }

  CampaignOptions options_;
  std::string compressed_path_;
  std::string raw_path_;
  std::vector<double> ref_scores_;
};

TEST_F(SharedCorpusTest, ConcurrentEvaluationsDecodeEachChunkOnce) {
  SharedCorpus corpus(compressed_path_);
  const std::size_t shards = corpus.num_shards();
  ASSERT_EQ(shards, 7u);

  // Four concurrent evaluations, each driving its own distinguisher
  // over the whole corpus from its own thread — the deployment shape
  // the cache exists for.
  constexpr std::size_t kEvaluations = 4;
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  std::vector<CpaDistinguisher> cpas;
  cpas.reserve(kEvaluations);
  for (std::size_t k = 0; k < kEvaluations; ++k) {
    cpas.emplace_back(engine.spec(), selector);
  }
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kEvaluations; ++k) {
    threads.emplace_back([&, k] {
      Distinguisher* const list[] = {&cpas[k]};
      replay_distinguishers(corpus, engine.round(), list, {},
                            /*num_threads=*/2);
    });
  }
  for (std::thread& t : threads) t.join();

  // The decode-once guarantee: 4 evaluations x 7 shards touched the
  // codec at most 7 times (exactly 7 — every shard was needed).
  EXPECT_EQ(corpus.decode_count(), shards);
  for (const CpaDistinguisher& cpa : cpas) {
    expect_same_scores(cpa.result().score, ref_scores_);
  }
}

TEST_F(SharedCorpusTest, SharedReplayMatchesPlainReplay) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  const CorpusReader plain(compressed_path_);
  CpaDistinguisher from_plain(engine.spec(), selector);
  Distinguisher* const list1[] = {&from_plain};
  EXPECT_TRUE(replay_distinguishers(plain, engine.round(), list1));

  SharedCorpus shared(compressed_path_);
  CpaDistinguisher from_shared(engine.spec(), selector);
  Distinguisher* const list2[] = {&from_shared};
  EXPECT_TRUE(replay_distinguishers(shared, engine.round(), list2));

  expect_same_scores(from_shared.result().score, from_plain.result().score);
  expect_same_scores(from_shared.result().score, ref_scores_);

  // The spec validation memoized on the first replay; a replay against a
  // DIFFERENT round must still be rejected, not waved through.
  TraceEngine other(present_spec(), LogicStyle::kSablGenuine, kTech);
  CpaDistinguisher wrong(other.spec(), selector);
  Distinguisher* const list3[] = {&wrong};
  EXPECT_THROW(replay_distinguishers(shared, other.round(), list3),
               ManifestMismatchError);
}

TEST_F(SharedCorpusTest, MultiSetOnePassMatchesIndividualReplays) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};

  SharedCorpus corpus(compressed_path_);
  CpaDistinguisher cpa_a(engine.spec(), selector);
  DomDistinguisher dom_a(
      engine.spec(),
      AttackSelector{.model = PowerModel::kHammingWeight, .bit = 1});
  CpaDistinguisher cpa_b(engine.spec(), selector);
  Distinguisher* const set_a[] = {&cpa_a, &dom_a};
  Distinguisher* const set_b[] = {&cpa_b};
  const std::span<Distinguisher* const> sets[] = {set_a, set_b};
  replay_shared(corpus, engine.round(), sets, /*num_threads=*/2);

  // One pass for both sets: still at most one decode per chunk.
  EXPECT_EQ(corpus.decode_count(), corpus.num_shards());
  expect_same_scores(cpa_a.result().score, ref_scores_);
  expect_same_scores(cpa_b.result().score, ref_scores_);

  const CorpusReader plain(compressed_path_);
  DomDistinguisher dom_ref(
      engine.spec(),
      AttackSelector{.model = PowerModel::kHammingWeight, .bit = 1});
  Distinguisher* const ref_list[] = {&dom_ref};
  EXPECT_TRUE(replay_distinguishers(plain, engine.round(), ref_list));
  expect_same_scores(dom_a.result().score, dom_ref.result().score);
}

TEST_F(SharedCorpusTest, RawCorpusBypassesCache) {
  SharedCorpus corpus(raw_path_);
  {
    const SharedCorpus::Lease lease = corpus.acquire(0);
    // Zero-copy: the lease aliases the shared mapping directly.
    EXPECT_EQ(lease.view().pts, corpus.reader().shard_plaintexts(0));
    EXPECT_EQ(lease.view().samples, corpus.reader().shard_samples(0));
  }
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CpaDistinguisher cpa(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight});
  Distinguisher* const list[] = {&cpa};
  EXPECT_TRUE(replay_distinguishers(corpus, engine.round(), list));
  expect_same_scores(cpa.result().score, ref_scores_);
  EXPECT_EQ(corpus.decode_count(), 0u);
}

TEST_F(SharedCorpusTest, BoundedCacheEvictsAndRedecodes) {
  SharedCorpus corpus(compressed_path_, /*max_cached_shards=*/2);
  const std::size_t shards = corpus.num_shards();
  // Two sequential full passes over a 2-slot cache: every acquire past
  // the cap evicts the LRU slot, so the second pass re-decodes every
  // shard instead of hitting the (long-evicted) slots.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = 0; s < shards; ++s) {
      const SharedCorpus::Lease lease = corpus.acquire(s);
      EXPECT_EQ(lease.view().count, corpus.reader().shard_count(s));
    }
  }
  EXPECT_EQ(corpus.decode_count(), 2 * shards);

  // A held lease pins its slot: acquiring the same shard again while the
  // lease is live must not decode a second copy.
  const std::uint64_t before = corpus.decode_count();
  const SharedCorpus::Lease held = corpus.acquire(0);
  const SharedCorpus::Lease again = corpus.acquire(0);
  EXPECT_EQ(again.view().pts, held.view().pts);
  EXPECT_EQ(corpus.decode_count(), before + 1);
}

TEST_F(SharedCorpusTest, CorruptChunkThrowsTypedAndDoesNotWedge) {
  // Overwrite shard 0's stored chunk with 0xFF: the RLE framing decodes
  // to an over-long token and must throw a typed error from acquire()
  // — in every acquiring thread, however many race — while later
  // acquires of GOOD shards keep working.
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(compressed_path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const CorpusReader probe(compressed_path_);
  const std::size_t stored =
      static_cast<std::size_t>(probe.shard_stored_bytes(0));
  // Chunk 0 starts right after the header+index block; its offset is
  // where the first shard's data was written. Find it via the raw view
  // machinery: v2 index entries are 32 bytes starting at offset 96.
  std::uint64_t chunk0 = 0;
  std::memcpy(&chunk0, bytes.data() + 96, sizeof(chunk0));
  ASSERT_LT(chunk0 + stored, bytes.size());
  std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(chunk0),
            bytes.begin() + static_cast<std::ptrdiff_t>(chunk0 + stored),
            std::uint8_t{0xFF});
  const std::string p = temp_path("corrupt.corpus");
  {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  SharedCorpus corpus(p);
  constexpr std::size_t kThreads = 4;
  std::vector<int> threw(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      try {
        (void)corpus.acquire(0);
      } catch (const IoError&) {
        threw[k] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(threw[k], 1) << "thread " << k;
  }
  // The failed slot was erased, not wedged: good shards still decode.
  const SharedCorpus::Lease ok = corpus.acquire(1);
  EXPECT_EQ(ok.view().count, corpus.reader().shard_count(1));
  EXPECT_THROW(corpus.acquire(corpus.num_shards()), ShardIndexError);
}

// Pass-through accumulator that drops the shard feed's shared histogram,
// so every histogram pass of the wrapped accumulator runs privately.
class PrivateHistogramAccumulator final : public ShardAccumulator {
 public:
  explicit PrivateHistogramAccumulator(std::unique_ptr<ShardAccumulator> inner)
      : inner_(std::move(inner)) {}

  void accumulate(const ShardBlock& block) override {
    ShardBlock own = block;
    own.histogram = nullptr;
    inner_->accumulate(own);
  }
  void merge(ShardAccumulator& other) override {
    inner_->merge(*static_cast<PrivateHistogramAccumulator&>(other).inner_);
  }
  void save(ByteWriter& writer) const override { inner_->save(writer); }
  void load(ByteReader& reader) override { inner_->load(reader); }

  ShardAccumulator& inner() { return *inner_; }

 private:
  std::unique_ptr<ShardAccumulator> inner_;
};

// `inner` with private histograms: the reference side of the replay_shared
// comparison, so a fault in histogram sharing cannot cancel out of it.
class PrivateHistogram final : public Distinguisher {
 public:
  explicit PrivateHistogram(Distinguisher& inner) : inner_(inner) {}

  TraceDataKind data_kind() const override { return inner_.data_kind(); }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  bool ordered() const override { return inner_.ordered(); }
  void validate(const RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<PrivateHistogramAccumulator>(
        inner_.make_shard_accumulator());
  }
  void finalize(ShardAccumulator& root) override {
    inner_.finalize(static_cast<PrivateHistogramAccumulator&>(root).inner());
  }

 private:
  Distinguisher& inner_;
};

// One CPA+DoM+MTD set per instance of a 16-S-box round, the --all-subkeys
// shape.
struct SubkeySet {
  SubkeySet(const RoundSpec& round, std::size_t j, std::size_t key,
            const std::vector<std::size_t>& ladder, std::size_t num_traces)
      : cpa(round.sboxes[j],
            AttackSelector{.sbox_index = j,
                           .model = PowerModel::kHammingWeight}),
        dom(round.sboxes[j], AttackSelector{.sbox_index = j, .bit = 1}),
        mtd(round.sboxes[j],
            AttackSelector{.sbox_index = j,
                           .model = PowerModel::kHammingWeight},
            key, ladder, num_traces),
        list{&cpa, &dom, &mtd} {}

  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  std::vector<Distinguisher*> list;
};

// replay_shared flattens the sets into one shard-major pass: each shard
// is fetched once, its sub-plaintexts extracted and its scalar histogram
// computed once per instance, and all 48 accumulators share them. Every
// result must equal per-set replay over a plain reader, with private
// histograms, bit for bit, at any thread count. The MTD ladder splits
// shards 0, 2 and 4 inside, ends shards 0, 2 and the ragged shard 6 on a
// checkpoint, and leaves shards 1, 3 and 5 without one, so both the
// shared-histogram and the split sub-block paths run.
TEST(ReplaySharedTest, ShardMajorPassMatchesPerSetReplay) {
  const RoundSpec round = present_round(16, LogicStyle::kStaticCmos);
  CampaignOptions options = small_options();  // 7 shards, ragged tail
  std::vector<std::size_t> subkeys(round.num_sboxes());
  for (std::size_t j = 0; j < subkeys.size(); ++j) {
    subkeys[j] = (3 + 7 * j) & 0xF;
  }
  options.key = round.pack_subkeys(subkeys);
  TraceEngine engine(round, kTech);
  const std::string path = temp_path("round16.corpus");
  engine.record(options, TraceDataKind::kScalar, path);
  const std::vector<std::size_t> ladder = {100, 448, 1000, 1344, 2000, 3000};

  const auto make_sets = [&] {
    std::vector<std::unique_ptr<SubkeySet>> sets;
    for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
      sets.push_back(std::make_unique<SubkeySet>(round, j, subkeys[j], ladder,
                                                 options.num_traces));
    }
    return sets;
  };

  const CorpusReader plain(path);
  const auto reference = make_sets();
  for (const auto& set : reference) {
    std::vector<PrivateHistogram> wrapped;
    for (Distinguisher* d : set->list) wrapped.emplace_back(*d);
    std::vector<Distinguisher*> list;
    for (PrivateHistogram& w : wrapped) list.push_back(&w);
    ASSERT_TRUE(replay_distinguishers(plain, round, list));
  }

  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SharedCorpus corpus(path);
    ASSERT_EQ(corpus.num_shards(), 7u);
    const auto sets = make_sets();
    std::vector<std::span<Distinguisher* const>> spans;
    for (const auto& set : sets) spans.emplace_back(set->list);
    replay_shared(corpus, round, spans, threads);
    EXPECT_EQ(corpus.decode_count(), corpus.num_shards());
    for (std::size_t j = 0; j < sets.size(); ++j) {
      SCOPED_TRACE("sbox " + std::to_string(j));
      expect_same_scores(sets[j]->cpa.result().score,
                         reference[j]->cpa.result().score);
      expect_same_scores(sets[j]->dom.result().score,
                         reference[j]->dom.result().score);
      const MtdResult& mtd = sets[j]->mtd.result();
      const MtdResult& want = reference[j]->mtd.result();
      EXPECT_EQ(mtd.rank_history, want.rank_history);
      EXPECT_EQ(mtd.disclosed, want.disclosed);
      EXPECT_EQ(mtd.mtd, want.mtd);
      ASSERT_EQ(mtd.rank_history.size(), ladder.size());
    }
  }
}

// The --all-subkeys shape (examples/campaign_cli.cpp): a cache bounded to
// one decoded shard per worker. The pass is shard-major and each worker
// holds one shard at a time, so the bound costs no re-decode, and the
// results equal an unbounded pass bit for bit, at any thread count.
TEST(ReplaySharedTest, CacheBoundedToThreadsDecodesEachShardOnce) {
  const RoundSpec round = present_round(16, LogicStyle::kStaticCmos);
  CampaignOptions options = small_options();  // 7 shards, ragged tail
  std::vector<std::size_t> subkeys(round.num_sboxes());
  for (std::size_t j = 0; j < subkeys.size(); ++j) {
    subkeys[j] = (5 + 3 * j) & 0xF;
  }
  options.key = round.pack_subkeys(subkeys);
  TraceEngine engine(round, kTech);
  const std::string path = temp_path("round16_bounded.corpus");
  engine.record(options, TraceDataKind::kScalar, path);
  const std::vector<std::size_t> ladder = {100, 448, 1000, 3000};

  const auto run = [&](std::size_t threads, std::size_t bound) {
    std::vector<std::unique_ptr<SubkeySet>> sets;
    std::vector<std::span<Distinguisher* const>> spans;
    for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
      sets.push_back(std::make_unique<SubkeySet>(round, j, subkeys[j], ladder,
                                                 options.num_traces));
      spans.emplace_back(sets.back()->list);
    }
    SharedCorpus corpus(path, bound);
    replay_shared(corpus, round, spans, threads);
    EXPECT_EQ(corpus.decode_count(), corpus.num_shards());
    return sets;
  };

  const auto unbounded = run(1, 0);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto bounded = run(threads, threads);
    for (std::size_t j = 0; j < bounded.size(); ++j) {
      SCOPED_TRACE("sbox " + std::to_string(j));
      expect_same_scores(bounded[j]->cpa.result().score,
                         unbounded[j]->cpa.result().score);
      expect_same_scores(bounded[j]->dom.result().score,
                         unbounded[j]->dom.result().score);
      EXPECT_EQ(bounded[j]->mtd.result().rank_history,
                unbounded[j]->mtd.result().rank_history);
      EXPECT_EQ(bounded[j]->mtd.result().mtd, unbounded[j]->mtd.result().mtd);
    }
  }
}

}  // namespace
}  // namespace sable
