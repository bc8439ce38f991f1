// Round targets: N S-box instances synthesized side by side in one logic
// style, consuming a wide plaintext state XOR a wide round key and
// emitting the *summed* per-cycle power across all instances.
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
// Two classes split the work. RoundKernelT<W> is the simulator: one
// lane-word-generic bit-parallel circuit simulator per instance, run W
// lanes per cycle, instantiated per lane word (64-bit, the portable
// 128-bit pair, AVX2/AVX-512 vectors). Its trace() / trace_sampled() are
// the width-1 reference and its tabulate() builds energy tables.
// RoundTarget is the campaign target: it owns no simulator and has no
// lane word, and gathers every trace from exact energy tables that its
// 64-lane kernel builds.
//
// The networks are memoryless as far as energy goes: a SABL cycle's
// energy is the set of DPDN nodes the current inputs connect (the held
// charge of floating nodes is never drawn from the supply), and WDDL
// keeps no cross-cycle state at all, so a SABL or WDDL instance's energy
// is a function of its input sub-word x alone and its table has 2^n
// entries. A static CMOS gate draws energy when its output rises, so a
// CMOS instance's energy is a function of (p, x), where p is the previous
// sub-word on the same logical lane or none for a fresh lane, and its
// table has (2^n + 1) * 2^n entries.
//
// Each instance's table is built on first batched use, once per distinct
// instance, and shared read-only by every clone(). trace_batch /
// trace_batch_sampled then gather from it: the trace at position k of a
// call is logical lane k % 64, and the target keeps one table-lane state
// per instance and logical lane. A kernel of any lane word builds the
// same tables bit for bit (tests/lane_width_test.cpp), so campaigns have
// no lane-width dimension. Identical (spec, style) instances share one
// synthesized circuit and one table.
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

/// The simulator kernel of a round at lane word W.
template <typename W>
class RoundKernelT {
 public:
  /// Synthesizes every instance (identical specs share a circuit), or
  /// takes pre-synthesized `circuits`, one per instance (e.g. another
  /// kernel's circuits()).
  RoundKernelT(const RoundSpec& round, const Technology& tech,
               std::vector<std::shared_ptr<const GateCircuit>> circuits = {});

  /// Independent kernel over the same synthesized circuits: the
  /// (immutable) GateCircuits are shared, every simulator is fresh.
  RoundKernelT clone() const;

  /// One encryption of the whole round on the simulators, lane 0: applies
  /// pt XOR key per instance (both `state_bytes()` packed bytes) and
  /// returns the summed power sample plus Gaussian noise of `noise_sigma`
  /// joules. Simulator state (CMOS transition history, SABL node charge)
  /// carries from call to call until reset_state().
  double trace(const std::uint8_t* pt, const std::uint8_t* key,
               double noise_sigma, Rng& rng);

  /// Time-resolved trace(): writes the `num_levels()` summed per-level
  /// energies of one encryption into `row`, plus per-sample noise. Shares
  /// trace()'s simulator state.
  void trace_sampled(const std::uint8_t* pt, const std::uint8_t* key,
                     double noise_sigma, Rng& rng, double* row);

  /// Restores every simulator's fresh-construction state in every lane.
  void reset_state();

  /// Instance `index`'s table without entries: inputs, history, levels.
  EnergyTable table_shape(std::size_t index) const;

  /// Every entry of instance `index`'s table (layout in EnergyTable), by
  /// the kernel on fresh simulators: the scalar energies, or the rows of
  /// `levels` per-level energies when `sampled`. Leaves this kernel's
  /// state alone, so concurrent calls are safe.
  std::vector<double> tabulate(std::size_t index, bool sampled) const;

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
  /// The per-instance circuits, for a kernel at another lane word.
  std::vector<std::shared_ptr<const GateCircuit>> circuits() const;
  /// Samples per trace_sampled row: the maximum logic depth over the
  /// instances (every style is time-resolvable).
  std::size_t num_levels() const { return num_levels_; }

 private:
  // The kernels' history is logically 64-lane at every word width.
  static constexpr std::size_t kHistoryLanes = 64;

  // One synthesized S-box beside its peers: shared immutable circuit,
  // private simulator (exactly one of the three styles is set).
  struct Instance {
    std::shared_ptr<const GateCircuit> circuit;
    std::unique_ptr<DifferentialCircuitSimBatchT<W>> diff_sim;
    std::unique_ptr<CmosCircuitSimBatchT<W>> cmos_sim;
    std::unique_ptr<WddlCircuitSimBatchT<W>> wddl_sim;
    std::size_t levels = 0;
  };

  RoundKernelT(RoundSpec round, std::vector<Instance> instances);

  /// The instance over the same circuit with a fresh simulator.
  static Instance fresh_copy(const Instance& instance);
  static void cycle_instance(Instance& instance,
                             const std::vector<W>& input_words,
                             const W& lane_mask, BatchCycleResultT<W>& out);
  static void cycle_instance_sampled(Instance& instance,
                                     const std::vector<W>& input_words,
                                     const W& lane_mask,
                                     SampledBatchCycleResultT<W>& out);
  /// Packs instance `index`'s keyed input of one state into lane 0 of
  /// `words_` — trace()'s kernel input.
  void pack_trace(std::size_t index, const std::uint8_t* pt,
                  const std::uint8_t* key);
  /// The one kernel loop: runs `count` inputs through a fresh copy of
  /// instance `index`, writing each input's energy (`sampled`: its row of
  /// the instance's levels) into `out`.
  void kernel_loop(std::size_t index, const std::uint8_t* xs,
                   std::size_t count, bool sampled, double* out) const;

  RoundSpec round_;
  std::vector<Instance> instances_;
  std::size_t num_levels_ = 0;
  std::vector<W> words_;
  BatchCycleResultT<W> scratch_;
  SampledBatchCycleResultT<W> sampled_scratch_;
};

/// The 64-lane kernel: the one campaign targets build their tables with.
using RoundKernel = RoundKernelT<std::uint64_t>;

/// The campaign target: energy tables, table-lane history, gather and
/// noise.
class RoundTarget {
 public:
  RoundTarget(const RoundSpec& round, const Technology& tech);

  /// Independent target over the same circuits and energy tables, with
  /// fresh table-lane history. This is the per-worker instance the
  /// thread-sharded TraceEngine hands each thread; whichever clone first
  /// needs a table builds it for all of them.
  RoundTarget clone() const;

  /// Batched encryptions: `pts` holds `count` packed states of
  /// `state_bytes()` bytes each; writes one summed power sample per state
  /// into `out[0..count)`, gathered from the energy tables and summed
  /// over the instances in instance order from 0.0. Noise is drawn from
  /// `rng` in ascending trace order.
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

  /// Returns every logical lane of every instance to a fresh lane.
  void reset_state();

  /// Instance `index`'s table, with both parts built if they are not yet
  /// — the exhaustive view of what the instance can draw.
  const EnergyTable& energy_table(std::size_t index) const;

  const RoundSpec& round() const { return kernel_->round(); }
  /// Samples per trace_batch_sampled row: the maximum logic depth over
  /// the instances.
  std::size_t num_levels() const { return kernel_->num_levels(); }
  /// The kernel the tables are built with, shared by every clone: the
  /// circuits, reference outputs, and (through clone()) trace().
  const RoundKernel& kernel() const { return *kernel_; }

 private:
  // An energy table and the flags that build each part once, shared by
  // the instances and clones that simulate identically.
  struct SharedTable {
    std::once_flag energy_built;
    std::once_flag rows_built;
    EnergyTable table;
  };

  // Table-lane history is logically 64-lane, as in the kernels.
  static constexpr std::size_t kHistoryLanes = 64;
  // Traces per gather block: whole logical-lane steps, and few enough
  // that the block's sums stay in L1 across the instance loop.
  static constexpr std::size_t kGatherBlock = 4 * kHistoryLanes;

  // One instance's shared table and private table-lane state.
  struct Instance {
    std::shared_ptr<SharedTable> table;
    // Per logical lane: the table offset (slot * inputs) of the lane's
    // next entry; 0 on a fresh lane and always for memoryless styles.
    std::array<std::uint32_t, kHistoryLanes> lane_slot{};
  };

  /// Writes instance `index`'s keyed input sub-words (pt XOR key) of
  /// `count` adjacent states into `xs`.
  void instance_inputs(std::size_t index, const std::uint8_t* pts,
                       std::size_t count, const std::uint8_t* key,
                       std::uint8_t* xs) const;
  /// Instance `index`'s table with its energies (rows, when `sampled`)
  /// built, by whichever caller gets there first.
  const EnergyTable& built(std::size_t index, bool sampled) const;
  /// Adds `count` traces' table entries (`span` doubles each) of
  /// `instance` into `dst` (trace stride `dst_stride`), advancing its
  /// table-lane history; the traces start on logical lane 0.
  static void gather(Instance& instance, const std::uint8_t* xs,
                     std::size_t count, const double* entries,
                     std::size_t span, double* dst, std::size_t dst_stride);

  std::shared_ptr<const RoundKernel> kernel_;
  std::vector<Instance> instances_;
};

}  // namespace sable
