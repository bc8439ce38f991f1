// campaign_bench — closed-loop campaign benchmark of the sable engine.
//
// One process runs one workload. It sets the workload up several times
// (setup_s is the median set-up CPU time), then runs campaigns back to
// back for --seconds, each through the library's public campaign entry
// point, and checks every campaign's result digest against the first.
// With --trace 0 one untimed 1-thread campaign follows, which must give
// the same digest. With --trace 1 it instead runs the same computation
// at one thread, untraced and traced, in three alternating passes. The
// traced pass is composed from the public per-layer calls (plaintext
// generation, stream simulation, sub-word extraction, each
// distinguisher's accumulator, corpus decode, shard reduction) with a
// span around each call; it must
// finalize to the same digest as the timed campaigns, which proves it
// measured the same computation. Where the workload reads a recorded
// corpus, each pass also records it again through stream() and a
// CorpusWriter under spans (the write path's io.encode / io.finish),
// and must reproduce TraceEngine::record's bytes. Spans are kept in
// memory and written to the work directory at exit.
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it a "stamp" recording the seed, host and resolved
// campaign configuration, so a noisy run explains itself.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--scale full|tiny] [--inject-mismatch]
//
// --scale tiny shrinks every campaign for the harness self-test;
// --inject-mismatch corrupts one repetition's digest so the self-test can
// prove the output check counts it as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/shard_reduce.hpp"
#include "engine/trace_engine.hpp"
#include "engine/worker_pool.hpp"
#include "io/corpus.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"
#include "tech/technology.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

using namespace sable;
namespace fs = std::filesystem;

namespace {

// ---- clocks and process counters -------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak resident memory (VmHWM). reset_peak_rss() restarts the mark, so a
// read covers only what ran since the reset; on kernels without
// clear_refs the mark stays the process-lifetime peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Aggregate host CPU ticks from /proc/stat: steal, and the sum of the
// first eight fields (user .. steal; guest time is already inside user).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostTicks host_ticks() {
  HostTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// Share of host CPU time the hypervisor stole between two readings.
double steal_share(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

// num / den, or 0 when a failed run left nothing to divide by.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Nearest-rank quantile, for the stamp's campaign-time spread.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// One timed call: wall and process CPU seconds, and the peak resident
// memory the call reached.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

template <typename Fn>
Sample timed(Fn&& fn) {
  reset_peak_rss();
  const double c0 = cpu_s();
  const double t0 = now_s();
  fn();
  Sample s;
  s.wall_s = now_s() - t0;
  s.cpu_s = cpu_s() - c0;
  s.peak_rss_mb = peak_rss_mb();
  return s;
}

// An output check that failed: the campaign ran but its result is wrong.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- tracing ----------------------------------------------------------------

// In-memory span recorder for the single-threaded traced composition.
// Spans nest strictly (RAII scopes on one thread), so a span's self time
// is its duration minus the durations of its direct children.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child[span.parent] += span.end - span.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  // Root span duration (the whole traced composition).
  double root_wall() const {
    return spans_.empty() ? 0.0 : spans_[0].end - spans_[0].start;
  }

  void write_jsonl(std::FILE* out, std::size_t pass) const {
    const double base = spans_.empty() ? 0.0 : spans_[0].start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::fprintf(out,
                   "{\"pass\": %zu, \"id\": %zu, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %ld}\n",
                   pass, i, spans_[i].name, spans_[i].start - base,
                   spans_[i].end - base, spans_[i].parent);
    }
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    long parent;
  };

  std::size_t open(const char* name) {
    spans_.push_back({name, now_s(), 0.0, current_});
    current_ = static_cast<long>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = now_s();
    current_ = spans_[id].parent;
  }

  std::vector<Span> spans_;
  long current_ = -1;
};

// Exact work counts the traced composition makes at layer boundaries.
struct LayerCounts {
  std::uint64_t sub_words_calls = 0;
  std::uint64_t accumulate_calls = 0;
  std::uint64_t decode_bytes_in = 0;
  std::uint64_t decode_bytes_out = 0;
  std::uint64_t encode_bytes_out = 0;
};

// ---- attacks and result digests ---------------------------------------------

const char* layer_of(const Distinguisher* d) {
  if (dynamic_cast<const CpaDistinguisher*>(d)) return "dpa.cpa";
  if (dynamic_cast<const DomDistinguisher*>(d)) return "dpa.dom";
  if (dynamic_cast<const MtdDistinguisher*>(d)) return "dpa.mtd";
  if (dynamic_cast<const MultiCpaDistinguisher*>(d)) return "dpa.multi_cpa";
  if (dynamic_cast<const SecondOrderCpaDistinguisher*>(d)) {
    return "dpa.second_order";
  }
  throw std::logic_error("unknown distinguisher type");
}

// The distinguishers attacking one S-box instance, and its true subkey.
struct AttackSet {
  std::size_t sbox = 0;
  std::size_t subkey = 0;
  std::vector<std::unique_ptr<Distinguisher>> owned;
  std::vector<Distinguisher*> list;

  void add(std::unique_ptr<Distinguisher> d) {
    list.push_back(d.get());
    owned.push_back(std::move(d));
  }
};

// The campaign_cli `attack` set: CPA (Hamming weight), DoM (the
// selector's bit 0), MTD over default_checkpoints.
AttackSet first_order_set(const RoundSpec& round, std::size_t sbox,
                          std::size_t subkey, std::size_t num_traces) {
  const SboxSpec& spec = round.sboxes[sbox];
  const AttackSelector hw{.sbox_index = sbox,
                          .model = PowerModel::kHammingWeight};
  AttackSet set;
  set.sbox = sbox;
  set.subkey = subkey;
  set.add(std::make_unique<CpaDistinguisher>(spec, hw));
  set.add(std::make_unique<DomDistinguisher>(spec, hw));
  set.add(std::make_unique<MtdDistinguisher>(
      spec, hw, subkey, default_checkpoints(num_traces), num_traces));
  return set;
}

// Time-resolved set: multi-sample CPA and second-order CPA.
AttackSet sampled_set(const RoundSpec& round, std::size_t levels,
                      std::size_t subkey) {
  const SboxSpec& spec = round.sboxes[0];
  const AttackSelector hw{.sbox_index = 0,
                          .model = PowerModel::kHammingWeight};
  AttackSet set;
  set.subkey = subkey;
  set.add(std::make_unique<MultiCpaDistinguisher>(spec, hw, levels));
  set.add(std::make_unique<SecondOrderCpaDistinguisher>(spec, hw));
  return set;
}

void append(std::string& out, const char* fmt, auto... args) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  out.append(buf, std::min(static_cast<std::size_t>(std::max(n, 0)),
                           sizeof buf - 1));
}

void append_attack(std::string& out, const char* tag, const AttackResult& r,
                   std::size_t subkey) {
  append(out, "%s rank %zu best %zu scores", tag, r.rank_of(subkey),
         r.best_guess);
  for (double s : r.score) append(out, " %.17g", s);
  out += '\n';
}

// %.17g scores, ranks and the MTD history of every finalized result.
std::string set_digest(const AttackSet& set) {
  std::string out;
  append(out, "sbox %zu subkey %zu\n", set.sbox, set.subkey);
  for (const Distinguisher* d : set.list) {
    if (const auto* cpa = dynamic_cast<const CpaDistinguisher*>(d)) {
      append_attack(out, "cpa", cpa->result(), set.subkey);
    } else if (const auto* dom = dynamic_cast<const DomDistinguisher*>(d)) {
      append_attack(out, "dom", dom->result(), set.subkey);
    } else if (const auto* mtd = dynamic_cast<const MtdDistinguisher*>(d)) {
      const MtdResult& r = mtd->result();
      append(out, "mtd disclosed %d at %zu history", r.disclosed ? 1 : 0,
             r.mtd);
      for (const auto& [count, rank] : r.rank_history) {
        append(out, " %zu:%zu", count, rank);
      }
      out += '\n';
    } else if (const auto* multi =
                   dynamic_cast<const MultiCpaDistinguisher*>(d)) {
      append(out, "multi_cpa best_sample %zu ", multi->result().best_sample);
      append_attack(out, "combined", multi->result().combined, set.subkey);
    } else if (const auto* second =
                   dynamic_cast<const SecondOrderCpaDistinguisher*>(d)) {
      const SecondOrderAttackResult& r = second->result();
      append(out, "second_order pair %zu,%zu ", r.best_pair_first,
             r.best_pair_second);
      append_attack(out, "combined", r.combined, set.subkey);
    }
  }
  return out;
}

ShardStates empty_states(const AttackSet& set, std::size_t shards) {
  ShardStates states(set.list.size());
  for (auto& row : states) row.resize(shards);
  return states;
}

// Feeds one shard block to every distinguisher of `set`, one span each.
void accumulate_traced(Tracer& tracer, LayerCounts& counts,
                       const AttackSet& set, ShardStates& states,
                       std::size_t shard, const ShardBlock& block) {
  for (std::size_t d = 0; d < set.list.size(); ++d) {
    states[d][shard] = set.list[d]->make_shard_accumulator();
    Tracer::Scope span(tracer, layer_of(set.list[d]));
    states[d][shard]->accumulate(block);
  }
  counts.accumulate_calls += set.list.size();
}

// Subkeys come from the workload seed, never from the library's streams.
std::vector<std::size_t> subkeys_for(std::uint64_t seed,
                                     const RoundSpec& round) {
  Rng rng(seed ^ 0x6b65797363686564ULL);
  std::vector<std::size_t> keys;
  for (const SboxSpec& spec : round.sboxes) {
    keys.push_back(static_cast<std::size_t>(rng.below(1ULL << spec.in_bits)));
  }
  return keys;
}

std::uint64_t fnv1a_file(const std::string& path, std::uint64_t* size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw CheckFailure("cannot reopen " + path);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<unsigned char> buf(1 << 20);
  *size = 0;
  for (std::size_t n; (n = std::fread(buf.data(), 1, buf.size(), f)) > 0;) {
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ buf[i]) * 0x100000001b3ULL;
    }
    *size += n;
  }
  std::fclose(f);
  return hash;
}

// ---- workloads --------------------------------------------------------------

struct Scale {
  bool tiny = false;
  std::size_t pick(std::size_t full, std::size_t small) const {
    return tiny ? small : full;
  }
};

class Workload {
 public:
  Workload(RoundSpec round, std::size_t traces, std::size_t threads,
           std::uint64_t seed, std::string workdir)
      : round_(std::move(round)),
        tech_(Technology::generic_180nm()),
        workdir_(std::move(workdir)) {
    subkeys_ = subkeys_for(seed, round_);
    options_.num_traces = traces;
    options_.key = round_.pack_subkeys(subkeys_);
    options_.noise_sigma = 2e-16;
    options_.seed = seed;
    options_.num_threads = threads;
  }
  virtual ~Workload() = default;

  /// Untimed, once: inputs setup reads but must not pay for.
  virtual void prepare() {}
  /// Timed as setup_s: engine construction (round synthesis), corpus open
  /// and validation, one warm-up campaign of one shard per worker.
  virtual void setup() = 0;
  /// Untimed: drops what setup() built, so it can run again.
  void teardown() { engine_.reset(); }
  /// One campaign at `threads`; times exactly the library calls a
  /// campaign_cli invocation of this shape makes.
  virtual Sample run(std::size_t threads) = 0;
  /// The 1-thread campaign composed from public per-layer calls.
  virtual void run_traced(Tracer& tracer, LayerCounts& counts) = 0;
  /// Output check of the last run: the result digest, or CheckFailure.
  virtual std::string digest() = 0;
  /// Stored corpus bytes per trace (0 without a corpus).
  virtual double corpus_bytes_per_trace() const { return 0.0; }
  /// Chunk decodes of the last timed campaign (replay only).
  virtual std::uint64_t cache_decodes() const { return 0; }
  /// Traced composition of the write path (record: simulate, encode,
  /// finish) where the workload has a corpus; it must reproduce the
  /// corpus TraceEngine::record wrote byte for byte.
  virtual void trace_write_path(Tracer&, LayerCounts&) {}
  /// Removes every file the workload wrote.
  virtual void cleanup() {}

  std::size_t traces() const { return options_.num_traces; }
  std::size_t threads() const { return options_.num_threads; }
  std::size_t shard_size() const { return campaign_shard_size(options_); }
  std::size_t shards() const {
    return (traces() + shard_size() - 1) / shard_size();
  }
  std::size_t lane_width() const {
    return campaign_lane_width(options_, round_.style);
  }

 protected:
  CampaignOptions with_threads(std::size_t threads) const {
    CampaignOptions o = options_;
    o.num_threads = threads;
    return o;
  }
  // One shard per worker, on the timed campaign's shard size.
  CampaignOptions warmup_options(std::size_t workers) const {
    CampaignOptions o = options_;
    o.shard_size = shard_size();
    o.num_traces = o.shard_size * workers;
    return o;
  }
  std::string path(const char* name) const { return workdir_ + "/" + name; }

  // Simulates the campaign through stream()/stream_sampled() at one
  // thread. Per shard, `consume(shard, pts, data, count)` runs inside a
  // bench.sink span after the shard's plaintexts were regenerated with
  // fill_random_states under a crypto.ptgen span and compared with the
  // engine's. The ptgen replica's time stands in for the engine's own
  // plaintext generation inside stream(), whose self time is
  // crypto.simulate minus crypto.ptgen.
  template <typename Consume>
  void stream_traced(Tracer& tracer, bool sampled, Consume&& consume) {
    const CampaignOptions options = with_threads(1);
    const std::size_t stride = round_.state_bytes();
    std::vector<std::uint8_t> replica(shard_size() * stride);
    std::size_t shard = 0;
    const auto sink = [&](const std::uint8_t* pts, const double* data,
                          std::size_t count) {
      Tracer::Scope glue(tracer, "bench.sink");
      {
        Tracer::Scope span(tracer, "crypto.ptgen");
        Rng rng(campaign_shard_seed(options.seed, shard, 0));
        round_.fill_random_states(rng, count, replica.data());
      }
      if (std::memcmp(replica.data(), pts, count * stride) != 0) {
        throw CheckFailure("fill_random_states replica differs from the "
                           "engine's shard plaintexts");
      }
      consume(shard, pts, data, count);
      ++shard;
    };
    Tracer::Scope span(tracer, "crypto.simulate");
    if (sampled) {
      engine_->stream_sampled(options, sink);
    } else {
      engine_->stream(options, sink);
    }
  }

  RoundSpec round_;
  Technology tech_;
  std::string workdir_;
  std::vector<std::size_t> subkeys_;
  CampaignOptions options_;
  std::unique_ptr<TraceEngine> engine_;
  WorkerPool pool_;  // reduction pool of the 1-thread composition (unused)
};

// Live attack: run_distinguishers over a simulated campaign — the CLI
// `attack` shape (scalar CPA+DoM+MTD) or the time-resolved MultiCpa +
// SecondOrderCpa pair.
class LiveWorkload final : public Workload {
 public:
  LiveWorkload(LogicStyle style, bool sampled, std::size_t traces,
               std::size_t threads, std::uint64_t seed, std::string workdir)
      : Workload(present_round(1, style), traces, threads, seed,
                 std::move(workdir)),
        sampled_(sampled) {}

  void setup() override {
    engine_ = std::make_unique<TraceEngine>(round_, tech_);
    const CampaignOptions warm = warmup_options(threads());
    AttackSet set = make_set(warm.num_traces);
    engine_->run_distinguishers(warm, set.list);
  }

  Sample run(std::size_t threads) override {
    set_ = make_set(traces());
    const CampaignOptions options = with_threads(threads);
    return timed([&] { engine_->run_distinguishers(options, set_.list); });
  }

  void run_traced(Tracer& tracer, LayerCounts& counts) override {
    set_ = make_set(traces());
    ShardStates states = empty_states(set_, shards());
    std::vector<std::uint8_t> sub_pts(shard_size());
    const std::size_t width = sampled_ ? engine_->target().num_levels() : 1;
    Tracer::Scope root(tracer, "campaign");
    stream_traced(tracer, sampled_,
                  [&](std::size_t shard, const std::uint8_t* pts,
                      const double* data, std::size_t count) {
                    {
                      Tracer::Scope span(tracer, "crypto.sub_words");
                      round_.sub_words(pts, count, 0, sub_pts.data());
                    }
                    ++counts.sub_words_calls;
                    ShardBlock block;
                    block.start = shard * shard_size();
                    block.sub_pts = sub_pts.data();
                    block.data = data;
                    block.count = count;
                    block.width = width;
                    accumulate_traced(tracer, counts, set_, states, shard,
                                      block);
                  });
    Tracer::Scope span(tracer, "engine.reduce");
    reduce_and_finalize_distinguishers(set_.list, states, pool_, 1);
  }

  std::string digest() override { return set_digest(set_); }

 private:
  AttackSet make_set(std::size_t num_traces) const {
    return sampled_ ? sampled_set(round_, engine_->target().num_levels(),
                                  subkeys_[0])
                    : first_order_set(round_, 0, subkeys_[0], num_traces);
  }

  bool sampled_;
  AttackSet set_;
};

// Replay: one CPA+DoM+MTD set per instance of a 16-S-box round, all fed
// from one recorded corpus in one replay_shared pass — the CLI `attack
// --corpus --all-subkeys` shape, which opens its SharedCorpus per call.
class ReplayWorkload final : public Workload {
 public:
  ReplayWorkload(std::size_t traces, std::size_t threads, std::uint64_t seed,
                 std::string workdir)
      : Workload(present_round(16, LogicStyle::kStaticCmos), traces, threads,
                 seed, std::move(workdir)),
        corpus_path_(path("replay.corpus")),
        warmup_path_(path("replay-warmup.corpus")),
        traced_path_(path("replay-traced.corpus")) {}

  // Records the corpus with the default v2 delta codec; it must reopen
  // with the campaign's manifest. Also records the warm-up corpus of one
  // shard per worker that setup() replays in full.
  void prepare() override {
    TraceEngine recorder(round_, tech_);
    recorder.record(warmup_options(threads()), TraceDataKind::kScalar,
                    warmup_path_);
    recorder.record(options_, TraceDataKind::kScalar, corpus_path_);
    const CorpusManifest want = expected_manifest(recorder);
    const CorpusReader reader(corpus_path_);
    const CorpusManifest& got = reader.manifest();
    if (got.campaign != want.campaign || got.kind != want.kind ||
        got.compression != want.compression ||
        got.pt_stride != want.pt_stride ||
        got.sample_width != want.sample_width ||
        reader.version() != kCorpusVersion2) {
      throw CheckFailure("recorded corpus reopens with another manifest");
    }
    std::uint64_t size = 0;
    fingerprint_ = fnv1a_file(corpus_path_, &size);
    corpus_bytes_ = static_cast<double>(size);
  }

  void setup() override {
    engine_ = std::make_unique<TraceEngine>(round_, tech_);
    SharedCorpus corpus(corpus_path_);
    if (corpus.manifest().campaign != engine_->campaign_manifest(options_)) {
      throw CheckFailure("replay corpus manifest differs from the campaign");
    }
    // Warm-up: the full replay of one shard per worker.
    SharedCorpus warmup(warmup_path_);
    AttackSet set = first_order_set(round_, 0, subkeys_[0],
                                    warmup_options(threads()).num_traces);
    replay_distinguishers(warmup, round_, set.list, {}, threads());
  }

  Sample run(std::size_t threads) override {
    make_sets();
    std::vector<std::span<Distinguisher* const>> spans;
    for (const AttackSet& set : sets_) spans.emplace_back(set.list);
    return timed([&] {
      SharedCorpus corpus(corpus_path_);
      replay_shared(corpus, round_, spans, threads);
      decodes_ = corpus.decode_count();
    });
  }

  void run_traced(Tracer& tracer, LayerCounts& counts) override {
    make_sets();
    std::vector<ShardStates> states;
    for (const AttackSet& set : sets_) {
      states.push_back(empty_states(set, shards()));
    }
    std::vector<std::uint8_t> sub_pts(shard_size());
    Tracer::Scope root(tracer, "campaign");
    // replay_shared's loop at one thread: set-major, every shard through
    // the SharedCorpus cache, so the first set decodes each chunk and the
    // other fifteen hit the cache.
    SharedCorpus corpus(corpus_path_);
    const CorpusReader& reader = corpus.reader();
    for (std::size_t k = 0; k < sets_.size(); ++k) {
      for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
        SharedCorpus::Lease lease;
        {
          Tracer::Scope span(tracer, "io.decode");
          lease = corpus.acquire(s);
        }
        if (k == 0) {
          counts.decode_bytes_in += reader.shard_stored_bytes(s);
          counts.decode_bytes_out += reader.shard_raw_bytes(s);
        }
        const CorpusShardView& view = lease.view();
        {
          Tracer::Scope span(tracer, "crypto.sub_words");
          round_.sub_words(view.pts, view.count, sets_[k].sbox,
                           sub_pts.data());
        }
        ++counts.sub_words_calls;
        ShardBlock block;
        block.start = reader.shard_start(s);
        block.sub_pts = sub_pts.data();
        block.data = view.samples;
        block.count = view.count;
        accumulate_traced(tracer, counts, sets_[k], states[k], s, block);
      }
    }
    for (std::size_t k = 0; k < sets_.size(); ++k) {
      Tracer::Scope span(tracer, "engine.reduce");
      reduce_and_finalize_distinguishers(sets_[k].list, states[k], pool_, 1);
    }
  }

  std::string digest() override {
    // An unbounded cache decodes every chunk exactly once per corpus open.
    if (decodes_ != shards()) {
      throw CheckFailure("SharedCorpus decoded " + std::to_string(decodes_) +
                         " chunks for " + std::to_string(shards()) +
                         " shards");
    }
    std::string out;
    for (const AttackSet& set : sets_) {
      const auto* cpa = dynamic_cast<const CpaDistinguisher*>(set.list[0]);
      if (cpa->result().rank_of(set.subkey) != 0) {
        throw CheckFailure("CPA does not rank subkey " +
                           std::to_string(set.sbox) + " first");
      }
      out += set_digest(set);
    }
    return out;
  }

  // Records the same campaign through stream() at one thread into a
  // CorpusWriter, one span per append_shard and one around finish().
  void trace_write_path(Tracer& tracer, LayerCounts& counts) override {
    {
      Tracer::Scope root(tracer, "record");
      CorpusWriter writer(traced_path_, expected_manifest(*engine_));
      stream_traced(tracer, /*sampled=*/false,
                    [&](std::size_t, const std::uint8_t* pts,
                        const double* samples, std::size_t count) {
                      Tracer::Scope span(tracer, "io.encode");
                      writer.append_shard(pts, samples, count);
                    });
      Tracer::Scope span(tracer, "io.finish");
      writer.finish();
    }
    std::uint64_t size = 0;
    if (fnv1a_file(traced_path_, &size) != fingerprint_) {
      throw CheckFailure("traced recording differs from TraceEngine::record");
    }
    fs::remove(traced_path_);
    counts.encode_bytes_out = size;
  }

  double corpus_bytes_per_trace() const override {
    return corpus_bytes_ / static_cast<double>(traces());
  }
  std::uint64_t cache_decodes() const override { return decodes_; }
  void cleanup() override {
    fs::remove(corpus_path_);
    fs::remove(warmup_path_);
    fs::remove(traced_path_);
  }

 private:
  CorpusManifest expected_manifest(const TraceEngine& engine) const {
    CorpusManifest m;
    m.campaign = engine.campaign_manifest(options_);
    m.kind = kCorpusKindScalar;
    m.compression = kCorpusCompressionDeltaPlaneRle;
    m.pt_stride = round_.state_bytes();
    m.sample_width = 1;
    return m;
  }

  void make_sets() {
    sets_.clear();
    for (std::size_t j = 0; j < round_.num_sboxes(); ++j) {
      sets_.push_back(first_order_set(round_, j, subkeys_[j], traces()));
    }
  }

  std::string corpus_path_;
  std::string warmup_path_;
  std::string traced_path_;
  std::uint64_t fingerprint_ = 0;
  double corpus_bytes_ = 0.0;
  std::uint64_t decodes_ = 0;
  std::vector<AttackSet> sets_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        const std::string& workdir) {
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  if (name == "live-sabl") {
    return std::make_unique<LiveWorkload>(
        LogicStyle::kSablEnhanced, false, scale.pick(8u << 20, 64u << 10),
        threads, seed, workdir);
  }
  if (name == "replay-allkeys") {
    return std::make_unique<ReplayWorkload>(scale.pick(2u << 20, 64u << 10),
                                            threads, seed, workdir);
  }
  if (name == "sampled-2o") {
    return std::make_unique<LiveWorkload>(
        LogicStyle::kSablGenuine, true, scale.pick(2u << 20, 64u << 10),
        threads, seed, workdir);
  }
  return nullptr;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  Scale scale;
  bool inject_mismatch = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload live-sabl|replay-allkeys|"
               "sampled-2o --seed N --seconds S --trace 0|1\n"
               "                      --workdir DIR [--scale full|tiny] "
               "[--inject-mismatch]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      args->inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--scale") {
      if (std::strcmp(value, "tiny") != 0 && std::strcmp(value, "full") != 0) {
        return false;
      }
      args->scale.tiny = std::strcmp(value, "tiny") == 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  fs::create_directories(args.workdir);
  const std::unique_ptr<Workload> wl =
      make_workload(args.workload, args.seed, args.scale, args.workdir);
  if (!wl) return usage();

  const HostTicks host0 = host_ticks();
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  try {
    wl->prepare();
    constexpr std::size_t kSetups = 21;
    for (std::size_t i = 0; i < kSetups; ++i) {
      wl->teardown();
      const Sample setup = timed([&] { wl->setup(); });
      setup_wall.push_back(setup.wall_s);
      setup_cpu.push_back(setup.cpu_s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: setup failed: %s\n", e.what());
    wl->cleanup();
    return 1;
  }

  // Closed loop: the next campaign starts when the previous one returned.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string reference;
  const auto check = [&](const std::string& digest, const char* what) {
    if (reference.empty()) {
      reference = digest;
    } else if (digest != reference) {
      ++failed;
      std::fprintf(stderr, "campaign_bench: %s digest differs from the "
                           "first campaign's\n", what);
      return false;
    }
    return true;
  };
  std::vector<Sample> samples;
  const double deadline = now_s() + args.seconds;
  while (now_s() < deadline || attempted < 3) {
    ++attempted;
    try {
      const Sample sample = wl->run(wl->threads());
      std::string digest = wl->digest();
      if (args.inject_mismatch && attempted == 2) digest += "corrupted\n";
      if (check(digest, "timed campaign")) samples.push_back(sample);
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "campaign_bench: campaign failed: %s\n", e.what());
    }
  }

  std::vector<double> walls;
  std::vector<double> tps;
  std::vector<double> cpu_per_mtrace;
  std::vector<double> util;
  std::vector<double> rss;
  const double n = static_cast<double>(wl->traces());
  for (const Sample& s : samples) {
    walls.push_back(s.wall_s);
    tps.push_back(n / s.wall_s);
    cpu_per_mtrace.push_back(s.cpu_s / n * 1e6);
    util.push_back(s.cpu_s / (s.wall_s * static_cast<double>(wl->threads())));
    rss.push_back(s.peak_rss_mb);
  }
  const std::uint64_t decodes = wl->cache_decodes();

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The same campaign at one thread must give the timed campaigns'
    // digest: thread count never changes a result.
    ++attempted;
    try {
      wl->run(1);
      check(wl->digest(), "1-thread campaign");
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "campaign_bench: 1-thread campaign failed: %s\n",
                   e.what());
    }
    // Set-up cost in process CPU seconds: on a shared host a set-up's
    // few milliseconds of wall time are dominated by vCPU wake-up latency
    // (the stamp records the wall median beside it).
    metrics = {{"setup_s", median(setup_cpu), "s"},
               {"traces_per_s", median(tps), "1/s"},
               {"cpu_s_per_mtrace", median(cpu_per_mtrace), "s"},
               {"peak_rss_mb", median(rss), "MB"}};
  } else {
    // Alternating untraced / traced 1-thread passes; per-layer times are
    // medians over the passes, counts are exact and equal in every pass.
    constexpr std::size_t kPasses = 3;
    std::vector<double> wall_1t;
    std::vector<double> traced_wall;
    std::map<std::string, std::vector<double>> self;
    LayerCounts counts;
    std::FILE* spans = std::fopen(
        (args.workdir + "/spans-" + args.workload + "-" +
         std::to_string(args.seed) + ".jsonl").c_str(), "w");
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      attempted += 2;
      try {
        const Sample single = wl->run(1);
        if (check(wl->digest(), "1-thread campaign")) {
          wall_1t.push_back(single.wall_s);
        }
        Tracer tracer;
        counts = LayerCounts{};
        wl->run_traced(tracer, counts);
        if (check(wl->digest(), "traced composition")) {
          traced_wall.push_back(tracer.root_wall());
          std::map<std::string, double> times = tracer.self_times();
          // stream()'s own plaintext generation: estimated by the replica.
          times["crypto.simulate"] -= times["crypto.ptgen"];
          for (const auto& [name, t] : times) self[name].push_back(t);
          if (spans) tracer.write_jsonl(spans, pass);
        }
        // The write path is outside the campaign: only its io layers are
        // reported, and they are not part of the campaign's layer sum.
        Tracer writer;
        wl->trace_write_path(writer, counts);
        std::map<std::string, double> times = writer.self_times();
        for (const char* name : {"io.encode", "io.finish"}) {
          if (times.count(name)) self[name].push_back(times[name]);
        }
        if (spans) writer.write_jsonl(spans, pass);
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "campaign_bench: 1-thread pass failed: %s\n",
                     e.what());
      }
    }
    if (spans) std::fclose(spans);

    const auto layer = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second);
    };
    static const char* const kLayers[] = {
        "crypto.ptgen",  "crypto.simulate", "crypto.sub_words", "dpa.cpa",
        "dpa.dom",       "dpa.mtd",         "dpa.multi_cpa",
        "dpa.second_order", "engine.reduce", "io.decode"};
    double layered = 0.0;
    for (const char* name : kLayers) layered += layer(name);
    const double single = median(wall_1t);
    const double shards = static_cast<double>(wl->shards());
    metrics = {
        {"crypto.ptgen.self_s", layer("crypto.ptgen"), "s"},
        {"crypto.simulate.self_s", layer("crypto.simulate"), "s"},
        {"crypto.simulate.ns_per_trace", layer("crypto.simulate") / n * 1e9,
         "ns"},
        {"crypto.sub_words.self_s", layer("crypto.sub_words"), "s"},
        {"crypto.sub_words.calls", static_cast<double>(counts.sub_words_calls),
         "count"},
        {"dpa.cpa.self_s", layer("dpa.cpa"), "s"},
        {"dpa.dom.self_s", layer("dpa.dom"), "s"},
        {"dpa.mtd.self_s", layer("dpa.mtd"), "s"},
        {"dpa.multi_cpa.self_s", layer("dpa.multi_cpa"), "s"},
        {"dpa.second_order.self_s", layer("dpa.second_order"), "s"},
        {"dpa.accumulate.calls", static_cast<double>(counts.accumulate_calls),
         "count"},
        {"engine.reduce.self_s", layer("engine.reduce"), "s"},
        {"engine.schedule.self_s", single - layered, "s"},
        {"engine.wall_1thread_s", single, "s"},
        {"engine.speedup_threads", ratio(single, median(walls)), "x"},
        {"engine.cpu_util", median(util), "frac"},
        {"engine.shards", shards, "count"},
        {"engine.shard_size", static_cast<double>(wl->shard_size()), "count"},
        {"engine.threads", static_cast<double>(wl->threads()), "count"},
        {"engine.lane_width", static_cast<double>(wl->lane_width()), "count"},
        {"io.decode.self_s", layer("io.decode"), "s"},
        {"io.decode.bytes_in", static_cast<double>(counts.decode_bytes_in),
         "B"},
        {"io.decode.bytes_out", static_cast<double>(counts.decode_bytes_out),
         "B"},
        {"io.cache.decodes", static_cast<double>(decodes), "count"},
        {"io.cache.decode_ratio", ratio(static_cast<double>(decodes), shards),
         "ratio"},
        {"io.encode.self_s", layer("io.encode"), "s"},
        {"io.encode.bytes_out", static_cast<double>(counts.encode_bytes_out),
         "B"},
        {"io.finish.self_s", layer("io.finish"), "s"},
        {"io.corpus.bytes_per_trace", wl->corpus_bytes_per_trace(), "B"},
        {"trace.overhead_frac", ratio(median(traced_wall), single) - 1.0,
         "frac"},
    };
  }
  wl->cleanup();

  const double steal = steal_share(host0, host_ticks());
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"tier\": \"%s\", \"lane_width\": %zu, \"shard_size\": %zu, "
      "\"shards\": %zu, \"threads\": %zu, \"traces\": %zu, "
      "\"campaigns\": %zu, \"campaign_wall_p50_s\": %.6f, "
      "\"campaign_wall_p75_s\": %.6f, \"failed_frac\": %.6f, "
      "\"host_steal_frac\": %.4f, \"setup_wall_p50_s\": %.6f, "
      "\"setup_cpu_p50_s\": %.6f}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), to_string(active_tier()),
      wl->lane_width(), wl->shard_size(), wl->shards(), wl->threads(),
      wl->traces(), samples.size(), median(walls), quantile(walls, 0.75),
      static_cast<double>(failed) / static_cast<double>(attempted), steal,
      median(setup_wall), median(setup_cpu));
  print_result(failed == 0 && !samples.empty(), attempted, failed, metrics);
  return 0;
}
