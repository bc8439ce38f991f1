// Width-generic round targets: N S-box instances synthesized side by side
// in one logic style, consuming a wide plaintext state XOR a wide round
// key and emitting the *summed* per-cycle power across all instances.
//
// This is the paper's real threat model: the attacked S-box of a cipher
// round sits beside its neighbours, whose data-dependent switching acts as
// algorithmic noise on the shared supply. A RoundTarget generalizes the
// single-S-box target — an attack selects one instance (one subkey) while
// every other instance contributes realistic noise.
//
// State layout: the wide plaintext / round key is a byte span of
// state_bytes() bytes. Instance i's input sub-word occupies state bits
// [bit_offset(i), bit_offset(i) + in_bits_i), packed LSB-first in instance
// order — so sixteen 4-bit PRESENT S-boxes nibble-pack into 8 bytes, and
// sixteen AES S-boxes byte-pack into 16. Heterogeneous specs (mixed
// widths) pack the same way.
//
// Encryptions run through exact energy tables built by the lane-word-
// generic bit-parallel circuit simulators. The networks are memoryless as
// far as energy goes: a SABL cycle's energy is the set of DPDN nodes the
// current inputs connect (the held charge of floating nodes is never
// drawn from the supply), and WDDL keeps no cross-cycle state at all, so
// a SABL or WDDL instance's energy is a function of its input sub-word x
// alone and its table has 2^n entries. A static CMOS gate draws energy
// when its output rises, so a CMOS instance's energy is a function of
// (p, x), where p is the previous sub-word on the same logical lane or
// none for a fresh lane, and its table has (2^n + 1) * 2^n entries.
//
// Each instance's table is built lazily by the kernel on first batched
// use, once per distinct instance and lane width, and shared read-only by
// every clone(). trace_batch / trace_batch_sampled then gather from it:
// the trace at position k of a call is logical lane k % 64 (the kernels'
// historic 64-lane history, whatever the word width), and the batch path
// keeps one table-lane state per instance and logical lane. trace() stays
// on the kernel, as the independent width-1 reference, with its own
// simulator state. RoundTarget is the 64-lane instantiation — the
// prototype the TraceEngine exposes; with_lane_width<W>() derives the
// wider SIMD variants from it, sharing the synthesized circuits (and
// building its own tables with its own kernel width).
// Identical (spec, style) instances share one synthesized circuit and
// one table; every instance owns its mutable simulator and lane state.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "crypto/sboxes.hpp"
#include "util/lane_word.hpp"
#include "util/rng.hpp"

namespace sable {

enum class LogicStyle {
  kStaticCmos,        // HD-leaking baseline
  kSablGenuine,       // dynamic differential with genuine DPDNs (§2 leak)
  kSablFullyConnected,  // §4 networks
  kSablEnhanced,      // §5 networks
  kWddlBalanced,      // standard-cell pair logic, ideal back-end (ref [8])
  kWddlMismatched,    // WDDL with 5% rail-capacitance imbalance
};

const char* to_string(LogicStyle style);

/// A round's nonlinear layer: the S-box instances (possibly heterogeneous,
/// each 1–8 input bits) and the logic style they are all implemented in.
struct RoundSpec {
  std::vector<SboxSpec> sboxes;
  LogicStyle style = LogicStyle::kStaticCmos;

  std::size_t num_sboxes() const { return sboxes.size(); }
  /// Total input width of the round (sum of per-instance in_bits).
  std::size_t state_bits() const;
  /// Bytes of a packed plaintext/round-key state: ceil(state_bits / 8).
  std::size_t state_bytes() const { return (state_bits() + 7) / 8; }
  /// First state bit of instance `index`'s input sub-word.
  std::size_t bit_offset(std::size_t index) const;

  /// Instance `index`'s input sub-word of a packed state.
  std::size_t sub_word(const std::uint8_t* state, std::size_t index) const;
  /// Writes instance `index`'s input sub-word into a packed state.
  void set_sub_word(std::uint8_t* state, std::size_t index,
                    std::size_t value) const;
  /// Batch extraction: out[t] = sub_word(states + t * state_bytes(), index)
  /// for `count` packed states — the per-trace sub-plaintexts an attack on
  /// instance `index` consumes.
  void sub_words(const std::uint8_t* states, std::size_t count,
                 std::size_t index, std::uint8_t* out) const;
  /// Packs one subkey per instance into a round-key byte vector.
  std::vector<std::uint8_t> pack_subkeys(
      const std::vector<std::size_t>& subkeys) const;
  /// Fills `count` packed states (count * state_bytes() bytes) with
  /// uniform random sub-words: per state, one below(2^in_bits) draw per
  /// instance in instance order — the campaign plaintext stream
  /// primitive. For a single byte-wide S-box this is one draw per trace,
  /// bit-compatible with the historic single-S-box stream.
  void fill_random_states(Rng& rng, std::size_t count,
                          std::uint8_t* states) const;
};

/// FNV-1a hash of a round's FUNCTIONAL identity: logic style plus every
/// instance's in_bits/out_bits/table (names excluded — renaming an S-box
/// does not change the traces it generates). Persistence artifacts
/// (recorded corpora, campaign state files; see src/io/) stamp this hash
/// into their manifests so a corpus recorded against one round can never
/// be silently replayed against a different one.
std::uint64_t round_spec_hash(const RoundSpec& round);

/// The N = 1 round of a single S-box (what SboxTarget adapts).
RoundSpec single_sbox_round(const SboxSpec& spec, LogicStyle style);
/// `num_sboxes` PRESENT S-boxes side by side (nibble-packed state) — the
/// full 16-instance nonlinear layer of PRESENT at num_sboxes = 16.
RoundSpec present_round(std::size_t num_sboxes, LogicStyle style);
/// `num_sboxes` AES S-boxes side by side (byte-packed state) — the AES
/// SubBytes layer at num_sboxes = 16.
RoundSpec aes_subbytes_round(std::size_t num_sboxes, LogicStyle style);

template <typename W>
class RoundTargetT {
 public:
  RoundTargetT(const RoundSpec& round, const Technology& tech);

  /// As above, but over pre-synthesized per-instance circuits (one
  /// shared_ptr per S-box instance) instead of synthesizing them — how a
  /// lane-width variant shares its source target's circuits. An empty
  /// vector synthesizes as usual.
  RoundTargetT(const RoundSpec& round, const Technology& tech,
               std::vector<std::shared_ptr<const GateCircuit>> circuits);

  /// Independent target over the same synthesized circuits and energy
  /// tables: the (immutable) GateCircuits and tables are shared, every
  /// piece of mutable state — table-lane history, CMOS transition history,
  /// SABL node charge, evaluator scratch — is fresh and private to the
  /// clone. This is the per-worker instance the thread-sharded TraceEngine
  /// hands each thread; whichever clone first needs a table builds it for
  /// all of them.
  RoundTargetT clone() const;

  /// The same target at another lane width: shares the synthesized
  /// circuits, rebuilds every per-instance simulator (same style
  /// derivation, same per-instance WDDL mismatch seeds) at width W2 in
  /// fresh-construction state, with its own tables built by the width-W2
  /// kernel. Campaigns over the result generate bit-identical traces to
  /// this target's — only the width the tables are built at changes.
  template <typename W2>
  RoundTargetT<W2> with_lane_width() const {
    std::vector<std::shared_ptr<const GateCircuit>> circuits;
    circuits.reserve(instances_.size());
    for (const Instance& instance : instances_) {
      circuits.push_back(instance.circuit);
    }
    return RoundTargetT<W2>(round_, tech_, std::move(circuits));
  }

  /// One encryption of the whole round on the simulator kernels, lane 0:
  /// applies pt XOR key per instance (both `state_bytes()` packed bytes)
  /// and returns the summed power sample plus Gaussian noise of
  /// `noise_sigma` joules. It keeps its own kernel state, apart from the
  /// batch path's table-lane state; reset_state() clears both.
  double trace(const std::uint8_t* pt, const std::uint8_t* key,
               double noise_sigma, Rng& rng);

  /// Time-resolved trace(): writes the `num_levels()` summed per-level
  /// energies of one encryption into `row`, plus per-sample noise. Shares
  /// trace()'s kernel state.
  void trace_sampled(const std::uint8_t* pt, const std::uint8_t* key,
                     double noise_sigma, Rng& rng, double* row);

  /// Batched encryptions: `pts` holds `count` packed states of
  /// `state_bytes()` bytes each; writes one summed power sample per state
  /// into `out[0..count)`, gathered from the energy tables and summed
  /// over the instances in instance order from 0.0. Noise is drawn from
  /// `rng` in ascending trace order, so a campaign is reproducible
  /// regardless of the lane width.
  void trace_batch(const std::uint8_t* pts, std::size_t count,
                   const std::uint8_t* key, double noise_sigma, Rng& rng,
                   double* out);

  /// Time-resolved variant: writes `count` rows of `num_levels()` summed
  /// per-logic-level energies (row-major) into `rows`; gates at the same
  /// topological depth across all instances switch together. Per-sample
  /// Gaussian noise is drawn in trace-major, level-minor order. Covers
  /// every logic style (differential, static CMOS, WDDL).
  void trace_batch_sampled(const std::uint8_t* pts, std::size_t count,
                           const std::uint8_t* key, double noise_sigma,
                           Rng& rng, double* rows);

  /// Restores the fresh-construction state of every instance: the batch
  /// path's table-lane history and trace()'s simulator state (CMOS
  /// transition history, SABL node charge) in every lane.
  void reset_state();

  /// One instance's exact energy table. Entry e = slot * inputs + x, for
  /// the keyed input sub-word x and a history slot: always 0 for SABL and
  /// WDDL (history == 1); for static CMOS (history == inputs + 1) 0 on a
  /// fresh lane and p + 1 after input p on the same logical lane.
  struct EnergyTable {
    std::size_t inputs = 0;      // 2^in_bits
    std::size_t history = 1;     // previous-input slots
    std::size_t levels = 0;      // the instance's logic depth
    std::vector<double> energy;  // per entry: the scalar cycle energy
    std::vector<double> rows;    // per entry: `levels` per-level energies
  };

  /// Instance `index`'s table, with both parts built if they are not yet
  /// — the exhaustive view of what the instance can draw.
  const EnergyTable& energy_table(std::size_t index) const;

  /// The kernel loop the tables are built with: drives `count` keyed input
  /// sub-words of instance `index` through a fresh simulator, kLanes per
  /// cycle with input k on logical lane k % 64, and writes each input's
  /// cycle energy into out[k]. The throughput bench times it.
  void simulate_instance(std::size_t index, const std::uint8_t* xs,
                         std::size_t count, double* out) const;

  /// Reference output of instance `index` for functional checks.
  std::uint8_t reference(std::size_t index, const std::uint8_t* pt,
                         const std::uint8_t* key) const;

  const RoundSpec& round() const { return round_; }
  const GateCircuit& circuit(std::size_t index) const;
  /// Samples per trace_batch_sampled row: the maximum logic depth over
  /// the instances (every style is time-resolvable).
  std::size_t num_levels() const { return num_levels_; }

 private:
  // An energy table and the flags that build each part once, shared by
  // the instances and clones that simulate identically.
  struct SharedTable {
    std::once_flag energy_built;
    std::once_flag rows_built;
    EnergyTable table;
  };

  // The kernels' history is logically 64-lane at every word width.
  static constexpr std::size_t kHistoryLanes = 64;
  // Traces per gather block: whole logical-lane steps, and few enough
  // that the block's sums stay in L1 across the instance loop.
  static constexpr std::size_t kGatherBlock = 4 * kHistoryLanes;

  // One synthesized S-box beside its peers: shared immutable circuit and
  // table, private mutable simulator (exactly one of the three styles is
  // set) and table-lane state.
  struct Instance {
    std::shared_ptr<const GateCircuit> circuit;
    std::unique_ptr<DifferentialCircuitSimBatchT<W>> diff_sim;
    std::unique_ptr<CmosCircuitSimBatchT<W>> cmos_sim;
    std::unique_ptr<WddlCircuitSimBatchT<W>> wddl_sim;
    std::size_t bit_offset = 0;
    std::shared_ptr<SharedTable> table;
    // Per logical lane: the table offset (slot * inputs) of the lane's
    // next entry; 0 on a fresh lane and always for memoryless styles.
    std::array<std::uint32_t, kHistoryLanes> lane_slot{};
  };

  RoundTargetT(RoundSpec round, Technology tech,
               std::vector<Instance> instances);

  /// The instance over the same circuit and table with fresh simulator
  /// and lane state.
  static Instance fresh_copy(const Instance& instance);
  static void cycle_instance(Instance& instance,
                             const std::vector<W>& input_words,
                             const W& lane_mask, BatchCycleResultT<W>& out);
  static void cycle_instance_sampled(Instance& instance,
                                     const std::vector<W>& input_words,
                                     const W& lane_mask,
                                     SampledBatchCycleResultT<W>& out);
  /// Writes instance `index`'s keyed input sub-words (pt XOR key) of
  /// `count` adjacent states into `xs`.
  void instance_inputs(std::size_t index, const std::uint8_t* pts,
                       std::size_t count, const std::uint8_t* key,
                       std::uint8_t* xs) const;
  /// Packs instance `index`'s keyed input of one state into lane 0 of
  /// `words_` — trace()'s kernel input.
  void pack_trace(std::size_t index, const std::uint8_t* pt,
                  const std::uint8_t* key);
  /// The one kernel loop: runs `count` inputs through a fresh copy of
  /// `instance`, writing each input's energy (`sampled`: its row of the
  /// instance's levels) into `out`.
  void kernel_loop(const Instance& instance, const std::uint8_t* xs,
                   std::size_t count, bool sampled, double* out) const;
  /// Every table entry of `instance` by the kernel: its energies, or its
  /// rows when `sampled`.
  std::vector<double> tabulate(const Instance& instance, bool sampled) const;
  /// `instance`'s table with its energies (rows, when `sampled`) built,
  /// by whichever caller gets there first.
  const EnergyTable& built(const Instance& instance, bool sampled) const;
  /// Adds `count` traces' table entries (`span` doubles each) of
  /// `instance` into `dst` (trace stride `dst_stride`), advancing its
  /// table-lane history; the traces start on logical lane 0.
  static void gather(Instance& instance, const std::uint8_t* xs,
                     std::size_t count, const double* entries,
                     std::size_t span, double* dst, std::size_t dst_stride);

  RoundSpec round_;
  Technology tech_;  // kept so with_lane_width() can re-derive simulators
  std::vector<Instance> instances_;
  std::size_t num_levels_ = 0;
  std::vector<W> words_;
  BatchCycleResultT<W> scratch_;
  SampledBatchCycleResultT<W> sampled_scratch_;
};

/// The 64-lane instantiation: the engine's prototype width and the historic
/// public name.
using RoundTarget = RoundTargetT<std::uint64_t>;

}  // namespace sable
