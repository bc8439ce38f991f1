// Simulation throughput on the paper's PRESENT S-box target, for the
// questions the campaign benchmark (campbench/) does not ask: the scalar
// one-at-a-time simulation against the 64-wide bit-parallel kernel on one
// thread (acceptance: batched >= 10x scalar for every style), the
// per-lane-width kernel speedup, the 64x64 bit-transpose lane packing
// against the per-bit gather it replaced, and the v1-vs-v2 corpus sizes.
// Thread scaling, replay and attack throughput are campbench's, measured
// on the real campaign driver.
//
// Campaigns gather from exact energy tables and run the kernel only to
// build them, so the batched columns time the kernel directly: the loop
// the tables are built with (RoundKernelT::simulate_instance), over the
// same 200000 inputs the scalar column simulates.
//
// Every timed row runs kRepeats times and reports the median with its
// [q1, q3] spread, so a change can be told from noise. The gate compares
// median batched with median scalar traces/sec and sets the exit code:
// nonzero iff some style's median ratio is below 10x. Besides the tables
// it writes BENCH_trace_throughput.json (or PATH) with the dispatch tier
// the run used, so the perf trajectory is machine-readable across
// changes.
//
// Usage: bench_trace_throughput [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "crypto/target.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "switchsim/cycle_sim.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

using namespace sable;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNumTraces = 200000;
constexpr int kRepeats = 5;
constexpr double kGate = 10.0;

constexpr LogicStyle kGateStyles[] = {
    LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
    LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
    LogicStyle::kWddlBalanced};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median and quartiles of one row's repeats (nearest rank, as campbench).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

// Calls rate() kRepeats times and summarises the rates it returns.
template <typename Fn>
Spread repeat(Fn&& rate) {
  std::vector<double> values;
  for (int i = 0; i < kRepeats; ++i) values.push_back(rate());
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    return values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5)];
  };
  return {at(0.5), at(0.25), at(0.75)};
}

// One scalar repeat on a fresh clone, so every repeat simulates the same
// traces from the same circuit state.
double scalar_tps(const SboxTarget& prototype, double* checksum) {
  SboxTarget target = prototype.clone();
  Rng rng(0xBE7C);
  double sum = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kNumTraces; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    sum += target.trace(pt, 0xB, 0.0, rng);
  }
  *checksum += sum;
  return static_cast<double>(kNumTraces) / seconds_since(start);
}

// The keyed S-box inputs scalar_tps() simulates: the same draws, with the
// noise draw that follows each plaintext skipped.
std::vector<std::uint8_t> scalar_inputs() {
  Rng rng(0xBE7C);
  std::vector<std::uint8_t> xs(kNumTraces);
  for (std::uint8_t& x : xs) {
    x = static_cast<std::uint8_t>(rng.below(16) ^ 0xB);
    rng.gaussian();
  }
  return xs;
}

// One batched repeat: the kernel loop over every input on a fresh
// simulator, kLanes per cycle, one thread.
template <typename W>
double kernel_tps(const RoundKernelT<W>& kernel,
                  const std::vector<std::uint8_t>& xs, double* checksum) {
  std::vector<double> energies(xs.size());
  const auto start = Clock::now();
  kernel.simulate_instance(0, xs.data(), xs.size(), energies.data());
  const double elapsed = seconds_since(start);
  for (double e : energies) *checksum += e;
  return static_cast<double>(xs.size()) / elapsed;
}

// kernel_tps() at a runtime lane width, on a kernel of that width over
// the 64-lane kernel's circuits.
Spread kernel_spread(const RoundKernel& kernel, std::size_t width,
                     const std::vector<std::uint8_t>& xs, double* checksum) {
  const Technology tech = Technology::generic_180nm();
  const auto at = [&](const auto& wide) {
    return repeat([&] { return kernel_tps(wide, xs, checksum); });
  };
  switch (width) {
    case 128:
      return at(RoundKernelT<Word128>(kernel.round(), tech, kernel.circuits()));
#if SABLE_HAVE_WORD256
    case 256:
      return at(RoundKernelT<Word256>(kernel.round(), tech, kernel.circuits()));
#endif
#if SABLE_HAVE_WORD512
    case 512:
      return at(RoundKernelT<Word512>(kernel.round(), tech, kernel.circuits()));
#endif
    default:
      return at(kernel);
  }
}

struct GateRow {
  const char* style = nullptr;
  Spread scalar_tps;
  Spread batched_tps;  // 64-lane word, one thread
  double speedup = 0.0;
};

GateRow measure_gate(LogicStyle style, const std::vector<std::uint8_t>& xs) {
  const Technology tech = Technology::generic_180nm();
  GateRow row;
  row.style = to_string(style);
  double checksum = 0.0;
  const SboxTarget prototype(present_spec(), style, tech);
  row.scalar_tps = repeat([&] { return scalar_tps(prototype, &checksum); });
  // The gate stays pinned to the historic 64-bit path; the lane table
  // below sweeps the wider words.
  const RoundKernel kernel(present_round(1, style), tech);
  row.batched_tps = kernel_spread(kernel, 64, xs, &checksum);
  row.speedup = row.batched_tps.median / row.scalar_tps.median;
  if (checksum == 0.0) std::fprintf(stderr, "unexpected zero checksum\n");
  return row;
}

struct LaneRow {
  std::size_t width = 0;
  const char* style = nullptr;
  Spread tps;
  double speedup_vs_64 = 0.0;
};

// Kernel one-thread traces/sec per (lane width, style), over every width
// the runtime dispatcher allows here: the kernel is bit-identical across
// widths, so the median ratio to the 64-bit row is the pure lane-width
// speedup of the loop the energy tables are built with.
std::vector<LaneRow> measure_lane_widths(
    const std::vector<std::size_t>& widths,
    const std::vector<std::uint8_t>& xs) {
  std::vector<LaneRow> rows;
  const Technology tech = Technology::generic_180nm();
  for (LogicStyle style : kGateStyles) {
    const RoundKernel kernel(present_round(1, style), tech);
    double checksum = 0.0;
    const std::size_t first = rows.size();
    for (std::size_t width : widths) {
      rows.push_back({width, to_string(style),
                      kernel_spread(kernel, width, xs, &checksum), 0.0});
    }
    // 64 is always a runtime width, and it is the first one.
    for (std::size_t i = first; i < rows.size(); ++i) {
      rows[i].speedup_vs_64 = rows[i].tps.median / rows[first].tps.median;
    }
    if (checksum == 0.0) std::fprintf(stderr, "unexpected zero checksum\n");
  }
  return rows;
}

struct PackRow {
  std::size_t width = 0;
  Spread gather_mlps;     // mega-lanes/sec through the per-bit gather
  Spread transpose_mlps;  // same work through the bit transpose
  double speedup = 0.0;
};

// Times one full-word pack of kVars=8 variables (the S-box hot-path
// shape) through the transpose against the per-bit gather reference.
// Both are extern library calls, so the loop cannot be folded away; a
// chunk checksum keeps the results observed.
template <typename W>
PackRow measure_pack_width() {
  using T = LaneTraits<W>;
  constexpr std::size_t kVars = 8;
  PackRow row;
  row.width = T::kLanes;
  std::vector<std::uint64_t> assignments(T::kLanes);
  Rng rng(0x9AC7);
  for (auto& a : assignments) a = rng.next();
  std::vector<W> words(kVars);
  std::uint64_t checksum = 0;
  // One repeat: batches of packs until the clock has enough signal.
  auto mlps = [&](auto&& pack) {
    std::size_t reps = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.1) {
      for (int i = 0; i < 2000; ++i) pack();
      reps += 2000;
      elapsed = seconds_since(start);
    }
    std::uint64_t chunks[T::kChunks];
    lane_chunks(words[0], chunks);
    checksum ^= chunks[0];
    return static_cast<double>(reps) * static_cast<double>(T::kLanes) /
           elapsed / 1e6;
  };
  const auto gather = [&] {
    pack_lane_words_gather(assignments.data(), T::kLanes, words);
  };
  const auto transpose = [&] {
    pack_lane_words(assignments.data(), T::kLanes, words);
  };
  row.gather_mlps = repeat([&] { return mlps(gather); });
  row.transpose_mlps = repeat([&] { return mlps(transpose); });
  row.speedup = row.transpose_mlps.median / row.gather_mlps.median;
  if (checksum == ~std::uint64_t{0}) std::fprintf(stderr, "checksum\n");
  return row;
}

// One pack_transpose row per width the runtime dispatcher allows here.
std::vector<PackRow> measure_pack(const std::vector<std::size_t>& widths) {
  std::vector<PackRow> rows;
  for (std::size_t width : widths) {
    switch (width) {
      case 64:
        rows.push_back(measure_pack_width<std::uint64_t>());
        break;
      case 128:
        rows.push_back(measure_pack_width<Word128>());
        break;
#if SABLE_HAVE_WORD256
      case 256:
        rows.push_back(measure_pack_width<Word256>());
        break;
#endif
#if SABLE_HAVE_WORD512
      case 512:
        rows.push_back(measure_pack_width<Word512>());
        break;
#endif
      default:
        break;
    }
  }
  return rows;
}

struct CompressionRow {
  const char* style = nullptr;
  std::uint64_t v1_bytes = 0;
  std::uint64_t v2_bytes = 0;
  double ratio = 0.0;
};

constexpr std::size_t kCompressionTraces = 12000;

// Corpus sizes, not times: cycle-sampled corpora of every logic style,
// recorded WITHOUT measurement noise — the regime the codec is built for
// (noise randomizes the low mantissa bits and is information-
// theoretically incompressible). Constant-power styles collapse to a
// per-level dictionary of a handful of values; the data-dependent styles
// still draw each level from a small discrete set of switching-energy
// sums. The corpora are written and removed here.
std::vector<CompressionRow> measure_compression() {
  const Technology tech = Technology::generic_180nm();
  std::vector<CompressionRow> rows;
  const std::string v1 = "bench_compress_v1.corpus";
  const std::string v2 = "bench_compress_v2.corpus";
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, tech);
    CampaignOptions options;
    options.num_traces = kCompressionTraces;
    options.key = {0xB};
    options.noise_sigma = 0.0;
    options.seed = 0xBE7C;
    engine.record(options, TraceDataKind::kSampled, v1,
                  kCorpusCompressionNone, kCorpusVersion1);
    engine.record(options, TraceDataKind::kSampled, v2);
    CompressionRow row;
    row.style = to_string(style);
    row.v1_bytes = std::filesystem::file_size(v1);
    row.v2_bytes = std::filesystem::file_size(v2);
    row.ratio = static_cast<double>(row.v1_bytes) /
                static_cast<double>(row.v2_bytes);
    rows.push_back(row);
  }
  std::remove(v1.c_str());
  std::remove(v2.c_str());
  return rows;
}

void print_spread(const Spread& s, double scale, int decimals) {
  std::printf(" %8.*f [%7.*f, %7.*f]", decimals, s.median / scale, decimals,
              s.q1 / scale, decimals, s.q3 / scale);
}

void json_spread(std::FILE* f, const char* name, const Spread& s) {
  std::fprintf(f, "\"%s\": {\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}",
               name, s.median, s.q1, s.q3);
}

void write_json(const std::string& path, const std::vector<GateRow>& gate,
                const std::vector<LaneRow>& lanes,
                const std::vector<PackRow>& pack,
                const std::vector<CompressionRow>& compression,
                double total_ratio) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"trace_throughput\",\n");
  std::fprintf(f, "  \"num_traces\": %zu,\n", kNumTraces);
  std::fprintf(f, "  \"threads\": 1,\n");
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  // Which kernels this run could actually dispatch to — perf rows are
  // only comparable across changes within the same active tier. The
  // sub-tier flags gate optional pack kernels (BW's vpmovb2m, GFNI's
  // vgf2p8affineqb + VBMI's vpermb) inside the avx512 tier.
  std::fprintf(f,
               "  \"dispatch\": {\"compiled\": \"%s\", \"detected\": \"%s\", "
               "\"active\": \"%s\", \"cpu_avx2\": %s, \"cpu_avx512f\": %s, "
               "\"cpu_avx512bw\": %s, \"cpu_avx512vbmi\": %s, "
               "\"cpu_gfni\": %s, \"max_runtime_lane_width\": %zu},\n",
               to_string(compiled_tier()), to_string(detected_tier()),
               to_string(active_tier()),
               cpu_features().avx2 ? "true" : "false",
               cpu_features().avx512f ? "true" : "false",
               cpu_features().avx512bw ? "true" : "false",
               cpu_features().avx512vbmi ? "true" : "false",
               cpu_features().gfni ? "true" : "false",
               max_runtime_lane_width());
  std::fprintf(f, "  \"styles\": [\n");
  for (std::size_t i = 0; i < gate.size(); ++i) {
    const GateRow& r = gate[i];
    std::fprintf(f, "    {\"style\": \"%s\", ", r.style);
    json_spread(f, "scalar_tps", r.scalar_tps);
    std::fprintf(f, ", ");
    json_spread(f, "batched_1t_tps", r.batched_tps);
    std::fprintf(f, ", \"speedup_batched\": %.2f, \"pass\": %s}%s\n",
                 r.speedup, r.speedup >= kGate ? "true" : "false",
                 i + 1 < gate.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"lane_widths\": [\n");
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const LaneRow& r = lanes[i];
    std::fprintf(f, "    {\"width\": %zu, \"style\": \"%s\", ", r.width,
                 r.style);
    json_spread(f, "tps", r.tps);
    std::fprintf(f, ", \"speedup_vs_64\": %.2f}%s\n", r.speedup_vs_64,
                 i + 1 < lanes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"pack_transpose\": [\n");
  for (std::size_t i = 0; i < pack.size(); ++i) {
    const PackRow& r = pack[i];
    std::fprintf(f, "    {\"width\": %zu, ", r.width);
    json_spread(f, "gather_mlps", r.gather_mlps);
    std::fprintf(f, ", ");
    json_spread(f, "transpose_mlps", r.transpose_mlps);
    std::fprintf(f, ", \"speedup\": %.2f}%s\n", r.speedup,
                 i + 1 < pack.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"compression\": [\n");
  for (std::size_t i = 0; i < compression.size(); ++i) {
    const CompressionRow& r = compression[i];
    std::fprintf(f,
                 "    {\"style\": \"%s\", \"v1_bytes\": %llu, "
                 "\"v2_bytes\": %llu, \"ratio\": %.2f}%s\n",
                 r.style, static_cast<unsigned long long>(r.v1_bytes),
                 static_cast<unsigned long long>(r.v2_bytes), r.ratio,
                 i + 1 < compression.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"compression_campaign\": {\"num_traces\": %zu, "
               "\"kind\": \"sampled\", \"noise_sigma\": 0.0, "
               "\"total_ratio\": %.2f}\n",
               kCompressionTraces, total_ratio);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_trace_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  std::printf(
      "== simulation throughput: PRESENT S-box, %zu traces, 1 thread, "
      "median [q1, q3] of %d repeats ==\n",
      kNumTraces, kRepeats);
  std::printf("%-22s %27s %27s %8s %6s\n", "logic style", "scalar [Mt/s]",
              "64-lane [Mt/s]", "batched", ">=10x");
  bool all_pass = true;
  std::vector<GateRow> gate;
  const std::vector<std::uint8_t> xs = scalar_inputs();
  for (LogicStyle style : kGateStyles) {
    const GateRow r = measure_gate(style, xs);
    const bool pass = r.speedup >= kGate;
    all_pass = all_pass && pass;
    std::printf("%-22s", r.style);
    print_spread(r.scalar_tps, 1e6, 2);
    print_spread(r.batched_tps, 1e6, 2);
    std::printf(" %7.1fx %6s\n", r.speedup, pass ? "yes" : "NO");
    gate.push_back(r);
  }

  // Lane widths: the pure word-width speedup of the kernel, one thread,
  // bit-identical energies (the gate table above stays pinned to the
  // 64-bit path).
  const std::vector<std::size_t> widths = runtime_lane_widths();
  const std::vector<LaneRow> lanes = measure_lane_widths(widths, xs);
  std::printf("\nlane widths (%s tier, 1 thread, %zu traces):\n%-22s %6s %27s "
              "%8s\n",
              to_string(active_tier()), kNumTraces, "logic style", "width",
              "batched [Mt/s]", "vs 64");
  for (const LaneRow& r : lanes) {
    std::printf("%-22s %6zu", r.style, r.width);
    print_spread(r.tps, 1e6, 2);
    std::printf(" %7.2fx\n", r.speedup_vs_64);
  }

  // Lane packing: the 64x64 bit transpose vs. the per-bit gather it
  // replaced, per runtime width (same bit-identical output, pure speed).
  const std::vector<PackRow> pack = measure_pack(widths);
  std::printf("\npack_transpose (%s tier, full word, 8 vars):\n%6s %27s %27s "
              "%8s\n",
              to_string(active_tier()), "width", "gather [Ml/s]",
              "transpose [Ml/s]", "speedup");
  for (const PackRow& r : pack) {
    std::printf("%6zu", r.width);
    print_spread(r.gather_mlps, 1.0, 0);
    print_spread(r.transpose_mlps, 1.0, 0);
    std::printf(" %7.1fx\n", r.speedup);
  }

  // Compression: the sampled all-styles noiseless campaign (v1 raw file
  // vs v2 compressed file; expect >= 3x total). Byte counts, not timed.
  const std::vector<CompressionRow> compression = measure_compression();
  std::uint64_t v1_total = 0;
  std::uint64_t v2_total = 0;
  std::printf(
      "\ncorpus compression (sampled, noiseless, %zu traces):\n"
      "%-22s %12s %12s %8s\n",
      kCompressionTraces, "logic style", "v1 [bytes]", "v2 [bytes]", "ratio");
  for (const CompressionRow& r : compression) {
    v1_total += r.v1_bytes;
    v2_total += r.v2_bytes;
    std::printf("%-22s %12llu %12llu %7.1fx\n", r.style,
                static_cast<unsigned long long>(r.v1_bytes),
                static_cast<unsigned long long>(r.v2_bytes), r.ratio);
  }
  const double total_ratio =
      v2_total > 0
          ? static_cast<double>(v1_total) / static_cast<double>(v2_total)
          : 0.0;
  std::printf("%-22s %12llu %12llu %7.1fx (expect >= 3x: %s)\n", "total",
              static_cast<unsigned long long>(v1_total),
              static_cast<unsigned long long>(v2_total), total_ratio,
              total_ratio >= 3.0 ? "yes" : "NO");

  write_json(json_path, gate, lanes, pack, compression, total_ratio);
  std::printf("wrote %s\n", json_path.c_str());
  return all_pass ? 0 : 1;
}
