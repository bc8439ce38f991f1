// Distributed campaign driver: record / attack / merge as subcommands —
// the multi-process fan-out recipe of README's "Recording & distributed
// campaigns" section as one binary.
//
//   campaign_cli record  --traces N --out corpus [--codec delta|none|v1]
//   campaign_cli attack  [--corpus corpus] [--all-subkeys]
//                        [--shards A:B --partial P]
//                        [--resume P] [--checkpoint P --every K]
//                        [--json OUT]
//   campaign_cli merge   --partials p0,p1,... --json OUT
//   campaign_cli corpus-info --corpus PATH
//
// record writes the v2 delta+plane+RLE compressed corpus by default
// (--codec none for raw v2 chunks, --codec v1 for the legacy format —
// all three replay bit-identically). attack --corpus --all-subkeys runs
// one CPA+DoM+MTD set per round instance in a single pass over a
// SharedCorpus: one mapping, every chunk decoded once however many sets
// consume it. corpus-info prints any v1/v2 corpus's manifest, shard
// layout and per-shard stored/raw sizes.
//
// Every invocation rebuilds the same campaign (style, round, traces,
// seed, noise, shard size define it; the manifest machinery verifies the
// on-disk artifacts match) and the same attack set — CPA + DoM (bit 0) +
// MTD on the attacked S-box. A full `attack` finalizes and can emit a
// JSON report; a range-split `attack --shards A:B --partial P` persists
// raw shard states instead, and `merge` folds any number of partials
// through the exact fixed-shape reduction of a single-process run — the
// JSON reports compare byte-identical (%.17g scores), which is what the
// CI two-process smoke asserts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <memory>

#include "engine/trace_engine.hpp"
#include "engine/worker_pool.hpp"
#include "io/campaign_state.hpp"
#include "io/corpus.hpp"
#include "io/corpus_cache.hpp"
#include "io/replay.hpp"

using namespace sable;

namespace {

struct Cli {
  LogicStyle style = LogicStyle::kStaticCmos;
  std::size_t round_size = 1;
  std::size_t attack_sbox = 0;
  std::size_t num_traces = 6000;
  std::uint64_t seed = 0xCA27A167;
  double noise = 2e-16;
  std::size_t shard_size = 0;
  std::size_t num_threads = 0;
  std::string out_path;       // record: corpus path
  std::string corpus_path;    // attack: replay source
  std::string partial_path;   // attack: partial-state output
  std::string resume_path;    // attack: checkpoint to resume from
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  std::size_t shard_begin = 0;
  std::size_t shard_end = kAllShards;
  std::vector<std::string> partials;  // merge inputs
  std::string json_path;
  std::string codec = "delta";  // record: delta | none | v1
  bool all_subkeys = false;     // attack --corpus: one set per instance
};

std::vector<std::size_t> cli_subkeys(std::size_t n) {
  std::vector<std::size_t> keys(n);
  for (std::size_t j = 0; j < n; ++j) keys[j] = (0x9 + 7 * j) & 0xF;
  return keys;
}

bool parse_style(const char* name, LogicStyle* style) {
  for (LogicStyle s :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    if (std::strcmp(name, to_string(s)) == 0) {
      *style = s;
      return true;
    }
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s record --out PATH [--codec delta|none|v1] [campaign flags]\n"
      "       %s attack [--corpus PATH [--all-subkeys]]\n"
      "                 [--shards A:B --partial PATH]\n"
      "                 [--resume PATH] [--checkpoint PATH --every K]\n"
      "                 [--json PATH] [campaign flags]\n"
      "       %s merge --partials P0,P1,... [--json PATH] [campaign flags]\n"
      "       %s corpus-info --corpus PATH\n"
      "campaign flags: --style NAME --round N --attack-sbox I --traces N\n"
      "                --seed S --noise X --shard-size Z --threads T\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

// corpus-info: everything the header + index pin down, for any v1/v2
// file — no campaign flags needed, the corpus is self-describing.
int print_corpus_info(const std::string& path) {
  const CorpusReader corpus(path);
  const CorpusManifest& m = corpus.manifest();
  const CampaignManifest& c = m.campaign;
  std::printf("corpus %s\n", path.c_str());
  std::printf("  format v%u, compression %s, kind %s\n", corpus.version(),
              m.compression == kCorpusCompressionNone ? "none"
                                                      : "delta+plane+rle",
              m.kind == kCorpusKindScalar ? "scalar" : "sampled");
  std::printf("  campaign: %llu traces, %llu shards of %llu, seed 0x%llx, "
              "noise %g, spec 0x%016llx\n",
              static_cast<unsigned long long>(c.num_traces),
              static_cast<unsigned long long>(c.num_shards),
              static_cast<unsigned long long>(c.shard_size),
              static_cast<unsigned long long>(c.seed), c.noise_sigma,
              static_cast<unsigned long long>(c.spec_hash));
  std::printf("  pt_stride %llu bytes, sample_width %llu doubles\n",
              static_cast<unsigned long long>(m.pt_stride),
              static_cast<unsigned long long>(m.sample_width));
  std::uint64_t raw_total = 0;
  std::uint64_t stored_total = 0;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    const std::uint64_t raw = corpus.shard_raw_bytes(s);
    const std::uint64_t stored = corpus.shard_stored_bytes(s);
    raw_total += raw;
    stored_total += stored;
    std::printf("  shard %4zu: %6zu traces, raw %10llu B, stored %10llu B "
                "(%.2fx)\n",
                s, corpus.shard_count(s),
                static_cast<unsigned long long>(raw),
                static_cast<unsigned long long>(stored),
                stored ? static_cast<double>(raw) / stored : 0.0);
  }
  std::printf("  total: raw %llu B, stored %llu B, ratio %.2fx\n",
              static_cast<unsigned long long>(raw_total),
              static_cast<unsigned long long>(stored_total),
              stored_total ? static_cast<double>(raw_total) / stored_total
                           : 0.0);
  return 0;
}

CampaignOptions options_for(const Cli& cli, const RoundSpec& round) {
  CampaignOptions options;
  options.num_traces = cli.num_traces;
  options.key = round.pack_subkeys(cli_subkeys(cli.round_size));
  options.noise_sigma = cli.noise;
  options.seed = cli.seed;
  options.shard_size = cli.shard_size;
  options.num_threads = cli.num_threads;
  return options;
}

// The shared attack set. Invocation order is part of the persisted-state
// contract (blobs are stored in distinguisher order), so every
// subcommand builds exactly this list.
struct AttackSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  std::vector<Distinguisher*> list;

  AttackSet(const Cli& cli, const RoundSpec& round, std::size_t subkey)
      : cpa(round.sboxes[cli.attack_sbox],
            AttackSelector{.sbox_index = cli.attack_sbox,
                           .model = PowerModel::kHammingWeight}),
        dom(round.sboxes[cli.attack_sbox],
            AttackSelector{.sbox_index = cli.attack_sbox,
                           .model = PowerModel::kHammingWeight,
                           .bit = 0}),
        mtd(round.sboxes[cli.attack_sbox],
            AttackSelector{.sbox_index = cli.attack_sbox,
                           .model = PowerModel::kHammingWeight},
            subkey, default_checkpoints(cli.num_traces), cli.num_traces),
        list{&cpa, &dom, &mtd} {}
};

void write_scores(std::FILE* f, const std::vector<double>& scores) {
  std::fprintf(f, "[");
  for (std::size_t g = 0; g < scores.size(); ++g) {
    std::fprintf(f, "%s%.17g", g == 0 ? "" : ", ", scores[g]);
  }
  std::fprintf(f, "]");
}

// One attack set's result fields: `"cpa": {...}, "dom": {...},
// "mtd": {...}` with `indent` before each key (no trailing newline) —
// shared between the single-set report and --all-subkeys array entries.
void write_attack_fields(std::FILE* f, const char* indent,
                         const AttackSet& attacks, std::size_t subkey) {
  const AttackResult& cpa = attacks.cpa.result();
  std::fprintf(f, "%s\"cpa\": {\"rank\": %zu, \"scores\": ", indent,
               cpa.rank_of(subkey));
  write_scores(f, cpa.score);
  const AttackResult& dom = attacks.dom.result();
  std::fprintf(f, "},\n%s\"dom\": {\"rank\": %zu, \"scores\": ", indent,
               dom.rank_of(subkey));
  write_scores(f, dom.score);
  const MtdResult& mtd = attacks.mtd.result();
  std::fprintf(f, "},\n%s\"mtd\": {\"disclosed\": %s, \"mtd\": %zu, "
                  "\"history\": [",
               indent, mtd.disclosed ? "true" : "false", mtd.mtd);
  for (std::size_t i = 0; i < mtd.rank_history.size(); ++i) {
    std::fprintf(f, "%s[%zu, %zu]", i == 0 ? "" : ", ",
                 mtd.rank_history[i].first, mtd.rank_history[i].second);
  }
  std::fprintf(f, "]}");
}

// Deterministic report: identical campaigns produce byte-identical files
// however the shard states were produced (simulated, replayed, merged).
int write_json(const Cli& cli, const AttackSet& attacks, std::size_t subkey) {
  std::FILE* f = std::fopen(cli.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"style\": \"%s\",\n  \"traces\": %zu,\n",
               to_string(cli.style), cli.num_traces);
  std::fprintf(f, "  \"seed\": %llu,\n  \"subkey\": %zu,\n",
               static_cast<unsigned long long>(cli.seed), subkey);
  write_attack_fields(f, "  ", attacks, subkey);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return 0;
}

// --all-subkeys report: the same deterministic fields, one array entry
// per round instance.
int write_json_multi(const Cli& cli,
                     const std::vector<std::unique_ptr<AttackSet>>& sets,
                     const std::vector<std::size_t>& subkeys) {
  std::FILE* f = std::fopen(cli.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"style\": \"%s\",\n  \"traces\": %zu,\n",
               to_string(cli.style), cli.num_traces);
  std::fprintf(f, "  \"seed\": %llu,\n  \"subkeys\": [\n",
               static_cast<unsigned long long>(cli.seed));
  for (std::size_t j = 0; j < sets.size(); ++j) {
    std::fprintf(f, "    {\"sbox\": %zu, \"subkey\": %zu,\n", j, subkeys[j]);
    write_attack_fields(f, "     ", *sets[j], subkeys[j]);
    std::fprintf(f, "}%s\n", j + 1 < sets.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  if (mode != "record" && mode != "attack" && mode != "merge" &&
      mode != "corpus-info") {
    return usage(argv[0]);
  }
  Cli cli;
  for (int i = 2; i < argc; ++i) {
    const auto has_value = [&] { return i + 1 < argc; };
    if (std::strcmp(argv[i], "--style") == 0 && has_value()) {
      if (!parse_style(argv[++i], &cli.style)) {
        std::fprintf(stderr, "unknown --style %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--round") == 0 && has_value()) {
      cli.round_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--attack-sbox") == 0 && has_value()) {
      cli.attack_sbox = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--traces") == 0 && has_value()) {
      cli.num_traces = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value()) {
      cli.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--noise") == 0 && has_value()) {
      cli.noise = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--shard-size") == 0 && has_value()) {
      cli.shard_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && has_value()) {
      cli.num_threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && has_value()) {
      cli.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--corpus") == 0 && has_value()) {
      cli.corpus_path = argv[++i];
    } else if (std::strcmp(argv[i], "--partial") == 0 && has_value()) {
      cli.partial_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && has_value()) {
      cli.resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && has_value()) {
      cli.checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--every") == 0 && has_value()) {
      cli.checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && has_value()) {
      const std::string range = argv[++i];
      const std::size_t colon = range.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--shards expects A:B (B empty = end)\n");
        return 2;
      }
      cli.shard_begin = std::strtoull(range.substr(0, colon).c_str(),
                                      nullptr, 10);
      const std::string end = range.substr(colon + 1);
      cli.shard_end =
          end.empty() ? kAllShards : std::strtoull(end.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--partials") == 0 && has_value()) {
      std::string paths = argv[++i];
      std::size_t pos = 0;
      while (pos <= paths.size()) {
        const std::size_t comma = paths.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? paths.size() : comma;
        if (end > pos) cli.partials.push_back(paths.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && has_value()) {
      cli.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--codec") == 0 && has_value()) {
      cli.codec = argv[++i];
    } else if (std::strcmp(argv[i], "--all-subkeys") == 0) {
      cli.all_subkeys = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (cli.round_size == 0 || cli.attack_sbox >= cli.round_size) {
    std::fprintf(stderr, "--attack-sbox must address one of the --round %zu "
                         "instances\n",
                 cli.round_size);
    return 2;
  }

  try {
    if (mode == "corpus-info") {
      if (cli.corpus_path.empty()) {
        std::fprintf(stderr, "corpus-info needs --corpus PATH\n");
        return 2;
      }
      return print_corpus_info(cli.corpus_path);
    }

    const Technology tech = Technology::generic_180nm();
    const RoundSpec round = present_round(cli.round_size, cli.style);
    TraceEngine engine(round, tech);
    const CampaignOptions options = options_for(cli, round);
    const std::size_t subkey =
        round.sub_word(options.key.data(), cli.attack_sbox);

    if (mode == "record") {
      if (cli.out_path.empty()) {
        std::fprintf(stderr, "record needs --out PATH\n");
        return 2;
      }
      std::uint32_t compression = kCorpusCompressionDeltaPlaneRle;
      std::uint32_t version = kCorpusVersion2;
      if (cli.codec == "none") {
        compression = kCorpusCompressionNone;
      } else if (cli.codec == "v1") {
        compression = kCorpusCompressionNone;
        version = kCorpusVersion1;
      } else if (cli.codec != "delta") {
        std::fprintf(stderr, "--codec must be delta, none or v1\n");
        return 2;
      }
      engine.record(options, TraceDataKind::kScalar, cli.out_path,
                    compression, version);
      const CampaignManifest m = engine.campaign_manifest(options);
      std::printf("recorded %llu traces (%llu shards of %llu) to %s\n",
                  static_cast<unsigned long long>(m.num_traces),
                  static_cast<unsigned long long>(m.num_shards),
                  static_cast<unsigned long long>(m.shard_size),
                  cli.out_path.c_str());
      return 0;
    }

    if (mode == "attack" && cli.all_subkeys) {
      if (cli.corpus_path.empty()) {
        std::fprintf(stderr, "--all-subkeys needs --corpus PATH\n");
        return 2;
      }
      // One CPA+DoM+MTD set per round instance, all driven in a single
      // pass over one shared mapping — each chunk is decoded once
      // however many sets consume it. The pass is shard-major and every
      // worker holds one shard at a time, so the decoded-shard cache
      // needs one slot per worker, not one per shard.
      SharedCorpus corpus(cli.corpus_path,
                          resolve_thread_count(cli.num_threads));
      std::vector<std::unique_ptr<AttackSet>> sets;
      std::vector<std::size_t> subkeys;
      std::vector<std::span<Distinguisher* const>> spans;
      for (std::size_t j = 0; j < cli.round_size; ++j) {
        Cli sub = cli;
        sub.attack_sbox = j;
        subkeys.push_back(round.sub_word(options.key.data(), j));
        sets.push_back(std::make_unique<AttackSet>(sub, round, subkeys[j]));
      }
      for (const auto& set : sets) spans.emplace_back(set->list);
      replay_shared(corpus, round, spans, cli.num_threads);
      for (std::size_t j = 0; j < sets.size(); ++j) {
        std::printf("sbox %zu: CPA rank %zu, DoM rank %zu, MTD %s%zu\n", j,
                    sets[j]->cpa.result().rank_of(subkeys[j]),
                    sets[j]->dom.result().rank_of(subkeys[j]),
                    sets[j]->mtd.result().disclosed ? "" : "not disclosed at ",
                    sets[j]->mtd.result().disclosed ? sets[j]->mtd.result().mtd
                                                    : cli.num_traces);
      }
      if (!cli.json_path.empty()) return write_json_multi(cli, sets, subkeys);
      return 0;
    }

    AttackSet attacks(cli, round, subkey);

    if (mode == "merge") {
      if (cli.partials.empty()) {
        std::fprintf(stderr, "merge needs --partials P0,P1,...\n");
        return 2;
      }
      engine.merge_partials(options, attacks.list, cli.partials);
    } else {
      CampaignPersistence persist;
      persist.resume_path = cli.resume_path;
      persist.checkpoint_every_shards = cli.checkpoint_every;
      persist.shard_begin = cli.shard_begin;
      persist.shard_end = cli.shard_end;
      // --partial is the fan-out spelling of --checkpoint: a range-split
      // invocation persists its shard states there for a later merge.
      persist.checkpoint_path =
          !cli.partial_path.empty() ? cli.partial_path : cli.checkpoint_path;
      bool complete = false;
      if (!cli.corpus_path.empty()) {
        const CorpusReader corpus(cli.corpus_path);
        complete =
            engine.replay(corpus, attacks.list, persist, cli.num_threads);
      } else {
        complete = engine.run_distinguishers(options, attacks.list, persist);
      }
      if (!complete) {
        std::printf("partial campaign state written to %s\n",
                    persist.checkpoint_path.c_str());
        return 0;
      }
    }

    std::printf("CPA rank %zu, DoM rank %zu, MTD %s%zu\n",
                attacks.cpa.result().rank_of(subkey),
                attacks.dom.result().rank_of(subkey),
                attacks.mtd.result().disclosed ? "" : "not disclosed at ",
                attacks.mtd.result().disclosed ? attacks.mtd.result().mtd
                                               : cli.num_traces);
    if (!cli.json_path.empty()) return write_json(cli, attacks, subkey);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
