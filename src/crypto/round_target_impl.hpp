// Definitions of the RoundTargetT<W> templates declared in
// crypto/round_target.hpp. Included by exactly the TUs that instantiate
// them: crypto/round_target.cpp for the portable lane words and the
// per-ISA TUs under src/simd/ (inside their #pragma GCC target regions)
// for Word256/Word512. Pulls in the circuit/WDDL/switch-level impl
// headers because instantiating a round target instantiates its
// simulators.
#pragma once

#include <algorithm>
#include <bit>

#include "cell/builder.hpp"
#include "cell/circuit_sim_impl.hpp"
#include "cell/wddl_impl.hpp"
#include "crypto/round_target.hpp"
#include "expr/factoring.hpp"
#include "switchsim/cycle_sim_impl.hpp"
#include "util/error.hpp"

namespace sable {
namespace round_target_detail {

// All four helpers are `static`, not `inline`: the per-ISA TUs compile
// this header inside a #pragma GCC target region, and a comdat copy built
// there could be the one the linker keeps for portable callers — internal
// linkage keeps every TU's copy at its own ISA level.
[[maybe_unused]] static NetworkVariant variant_for(LogicStyle style) {
  switch (style) {
    case LogicStyle::kSablGenuine:
      return NetworkVariant::kGenuine;
    case LogicStyle::kSablEnhanced:
      return NetworkVariant::kEnhanced;
    case LogicStyle::kStaticCmos:  // topology reused; energy model differs
    case LogicStyle::kSablFullyConnected:
    case LogicStyle::kWddlBalanced:
    case LogicStyle::kWddlMismatched:
      return NetworkVariant::kFullyConnected;
  }
  SABLE_ASSERT(false, "unreachable logic style");
}

[[maybe_unused]] static GateCircuit build_sbox_circuit(const SboxSpec& spec, LogicStyle style,
                                      const Technology& tech) {
  std::vector<ExprPtr> outputs;
  outputs.reserve(spec.out_bits);
  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    outputs.push_back(factored_form(sbox_output_bit(spec, bit)));
  }
  return build_from_expressions(outputs, spec.in_bits, variant_for(style),
                                tech);
}

[[maybe_unused]] static bool same_sbox(const SboxSpec& a, const SboxSpec& b) {
  return a.in_bits == b.in_bits && a.out_bits == b.out_bits &&
         a.table == b.table;
}

[[maybe_unused]] static std::size_t extract_bits(const std::uint8_t* state, std::size_t offset,
                                std::size_t bits) {
  std::size_t value = 0;
  for (std::size_t b = 0; b < bits; ++b) {
    const std::size_t bit = offset + b;
    value |=
        static_cast<std::size_t>((state[bit >> 3] >> (bit & 7)) & 1u) << b;
  }
  return value;
}

}  // namespace round_target_detail

// ---- RoundTargetT ---------------------------------------------------------

template <typename W>
RoundTargetT<W>::RoundTargetT(RoundSpec round, Technology tech,
                              std::vector<Instance> instances)
    : round_(std::move(round)),
      tech_(std::move(tech)),
      instances_(std::move(instances)) {
  for (const Instance& instance : instances_) {
    num_levels_ = std::max(num_levels_, instance.table->table.levels);
  }
}

template <typename W>
RoundTargetT<W>::RoundTargetT(const RoundSpec& round, const Technology& tech)
    : RoundTargetT(round, tech,
                   std::vector<std::shared_ptr<const GateCircuit>>{}) {}

template <typename W>
RoundTargetT<W>::RoundTargetT(
    const RoundSpec& round, const Technology& tech,
    std::vector<std::shared_ptr<const GateCircuit>> circuits)
    : round_(round), tech_(tech) {
  SABLE_REQUIRE(!round.sboxes.empty(),
                "a round needs at least one S-box instance");
  SABLE_REQUIRE(circuits.empty() || circuits.size() == round.sboxes.size(),
                "pre-synthesized circuits must cover every S-box instance");
  instances_.reserve(round.sboxes.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < round.sboxes.size(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    SABLE_REQUIRE(spec.in_bits >= 1 && spec.in_bits <= 8,
                  "S-box input width must be 1..8 bits");
    SABLE_REQUIRE(spec.table.size() == (std::size_t{1} << spec.in_bits),
                  "S-box table must cover every input");
    Instance instance;
    instance.bit_offset = offset;
    offset += spec.in_bits;
    if (!circuits.empty()) {
      instance.circuit = circuits[i];
    } else {
      // Identical specs share one synthesized circuit (a 16-instance
      // PRESENT round synthesizes once); every instance still owns its
      // simulator.
      for (std::size_t j = 0; j < i; ++j) {
        if (round_target_detail::same_sbox(round.sboxes[j], spec)) {
          instance.circuit = instances_[j].circuit;
          break;
        }
      }
      if (!instance.circuit) {
        instance.circuit = std::make_shared<const GateCircuit>(
            round_target_detail::build_sbox_circuit(spec, round.style, tech));
      }
    }
    std::size_t levels = 0;
    switch (round.style) {
      case LogicStyle::kStaticCmos: {
        // One transition's worth of switching energy for a typical cell
        // load: ~5 fF at the reference VDD.
        const double c_sw = 5e-15;
        instance.cmos_sim = std::make_unique<CmosCircuitSimBatchT<W>>(
            *instance.circuit, c_sw * tech.vdd * tech.vdd);
        levels = instance.cmos_sim->num_levels();
        break;
      }
      case LogicStyle::kWddlBalanced:
      case LogicStyle::kWddlMismatched: {
        const double mismatch =
            round.style == LogicStyle::kWddlMismatched ? 0.05 : 0.0;
        // Per-instance seed: each pair of rails gets its own deterministic
        // placement/routing imbalance (instance 0 keeps the historic seed).
        instance.wddl_sim = std::make_unique<WddlCircuitSimBatchT<W>>(
            *instance.circuit, tech, mismatch,
            0x3DD1 + static_cast<std::uint64_t>(i));
        levels = instance.wddl_sim->num_levels();
        break;
      }
      default:
        instance.diff_sim = std::make_unique<DifferentialCircuitSimBatchT<W>>(
            *instance.circuit);
        levels = instance.diff_sim->num_levels();
        break;
    }
    // Instances over one circuit simulate identically, so they share a
    // table — except mismatched WDDL, whose per-instance seed gives every
    // instance its own rail loads.
    if (round.style != LogicStyle::kWddlMismatched) {
      for (const Instance& peer : instances_) {
        if (peer.circuit == instance.circuit) {
          instance.table = peer.table;
          break;
        }
      }
    }
    if (!instance.table) {
      instance.table = std::make_shared<SharedTable>();
      EnergyTable& table = instance.table->table;
      table.inputs = std::size_t{1} << spec.in_bits;
      table.history = instance.cmos_sim ? table.inputs + 1 : 1;
      table.levels = levels;
    }
    num_levels_ = std::max(num_levels_, levels);
    instances_.push_back(std::move(instance));
  }
}

template <typename W>
typename RoundTargetT<W>::Instance RoundTargetT<W>::fresh_copy(
    const Instance& instance) {
  Instance copy;
  copy.circuit = instance.circuit;
  copy.bit_offset = instance.bit_offset;
  copy.table = instance.table;
  // The sims' clone_fresh() preserves derived energy models (WDDL rail
  // mismatch) without needing the Technology back, and starts from
  // fresh-construction lane state.
  if (instance.diff_sim) {
    copy.diff_sim = std::make_unique<DifferentialCircuitSimBatchT<W>>(
        instance.diff_sim->clone_fresh());
  } else if (instance.wddl_sim) {
    copy.wddl_sim = std::make_unique<WddlCircuitSimBatchT<W>>(
        instance.wddl_sim->clone_fresh());
  } else {
    copy.cmos_sim = std::make_unique<CmosCircuitSimBatchT<W>>(
        instance.cmos_sim->clone_fresh());
  }
  return copy;
}

template <typename W>
RoundTargetT<W> RoundTargetT<W>::clone() const {
  std::vector<Instance> copies;
  copies.reserve(instances_.size());
  for (const Instance& instance : instances_) {
    copies.push_back(fresh_copy(instance));
  }
  return RoundTargetT(round_, tech_, std::move(copies));
}

template <typename W>
void RoundTargetT<W>::cycle_instance(Instance& instance,
                                     const std::vector<W>& input_words,
                                     const W& lane_mask,
                                     BatchCycleResultT<W>& out) {
  if (instance.diff_sim) {
    instance.diff_sim->cycle(input_words, lane_mask, out);
  } else if (instance.wddl_sim) {
    instance.wddl_sim->cycle(input_words, lane_mask, out);
  } else {
    instance.cmos_sim->cycle(input_words, lane_mask, out);
  }
}

template <typename W>
void RoundTargetT<W>::cycle_instance_sampled(Instance& instance,
                                             const std::vector<W>& input_words,
                                             const W& lane_mask,
                                             SampledBatchCycleResultT<W>& out) {
  if (instance.diff_sim) {
    instance.diff_sim->cycle_sampled(input_words, lane_mask, out);
  } else if (instance.wddl_sim) {
    instance.wddl_sim->cycle_sampled(input_words, lane_mask, out);
  } else {
    instance.cmos_sim->cycle_sampled(input_words, lane_mask, out);
  }
}

template <typename W>
void RoundTargetT<W>::reset_state() {
  for (Instance& instance : instances_) {
    instance.lane_slot.fill(0);
    if (instance.diff_sim) {
      instance.diff_sim->reset();
    } else if (instance.cmos_sim) {
      instance.cmos_sim->reset();
    }
    // WDDL carries no cross-cycle state.
  }
}

template <typename W>
void RoundTargetT<W>::instance_inputs(std::size_t index,
                                      const std::uint8_t* pts,
                                      std::size_t count,
                                      const std::uint8_t* key,
                                      std::uint8_t* xs) const {
  const std::size_t stride = round_.state_bytes();
  const std::size_t offset = instances_[index].bit_offset;
  const std::size_t bits = round_.sboxes[index].in_bits;
  const std::size_t subkey =
      round_target_detail::extract_bits(key, offset, bits);
  // S-box inputs are at most 8 bits (validated at construction), so they
  // fit a byte.
  if ((offset & 7) + bits <= 8) {
    // Hot path: the sub-word sits inside one byte (every nibble- or
    // byte-aligned layout, which is all the built-in rounds) — a shift
    // and a mask per state instead of the per-bit gather.
    const std::uint8_t* bytes = pts + (offset >> 3);
    const unsigned shift = offset & 7;
    const std::uint8_t mask = static_cast<std::uint8_t>((1u << bits) - 1u);
    for (std::size_t t = 0; t < count; ++t) {
      xs[t] = static_cast<std::uint8_t>(
          ((bytes[t * stride] >> shift) & mask) ^ subkey);
    }
  } else {
    for (std::size_t t = 0; t < count; ++t) {
      xs[t] = static_cast<std::uint8_t>(
          round_target_detail::extract_bits(pts + t * stride, offset, bits) ^
          subkey);
    }
  }
}

template <typename W>
void RoundTargetT<W>::kernel_loop(const Instance& instance,
                                  const std::uint8_t* xs, std::size_t count,
                                  bool sampled, double* out) const {
  constexpr std::size_t kLanes = LaneTraits<W>::kLanes;
  Instance sim = fresh_copy(instance);
  const std::size_t inputs = instance.table->table.inputs;
  const std::size_t levels = instance.table->table.levels;
  std::vector<W> words(static_cast<std::size_t>(std::countr_zero(inputs)));
  BatchCycleResultT<W> result;
  SampledBatchCycleResultT<W> sampled_result;
  for (std::size_t base = 0; base < count; base += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - base);
    const W mask = lane_mask<W>(lanes);
    pack_lane_words(xs + base, lanes, words);
    if (!sampled) {
      cycle_instance(sim, words, mask, result);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        out[base + lane] = result.energy[lane];
      }
      continue;
    }
    cycle_instance_sampled(sim, words, mask, sampled_result);
    for (std::size_t l = 0; l < levels; ++l) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        out[(base + lane) * levels + l] = sampled_result.level_energy[l][lane];
      }
    }
  }
}

template <typename W>
std::vector<double> RoundTargetT<W>::tabulate(const Instance& instance,
                                              bool sampled) const {
  const EnergyTable& table = instance.table->table;
  const std::size_t inputs = table.inputs;
  const std::size_t span = sampled ? table.levels : 1;
  std::vector<double> entries(table.history * inputs * span);
  if (table.history == 1) {
    // Memoryless: one input per entry.
    std::vector<std::uint8_t> xs(inputs);
    for (std::size_t x = 0; x < inputs; ++x) {
      xs[x] = static_cast<std::uint8_t>(x);
    }
    kernel_loop(instance, xs.data(), inputs, sampled, entries.data());
    return entries;
  }
  // Static CMOS: one fresh stream per block of 64 inputs on the logical
  // lanes. Step 0 is the block on fresh lanes (slot 0); then, for every
  // p, a step of p on every lane followed by the block again (slot
  // p + 1). Blocks of narrow S-boxes repeat their inputs across lanes.
  const std::size_t steps = 2 * inputs + 1;
  std::vector<std::uint8_t> xs(steps * kHistoryLanes);
  std::vector<double> out(xs.size() * span);
  for (std::size_t first = 0; first < inputs; first += kHistoryLanes) {
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t lane = 0; lane < kHistoryLanes; ++lane) {
        xs[step * kHistoryLanes + lane] = static_cast<std::uint8_t>(
            step % 2 == 0 ? (first + lane) % inputs : step / 2);
      }
    }
    kernel_loop(instance, xs.data(), xs.size(), sampled, out.data());
    const std::size_t block = std::min(kHistoryLanes, inputs - first);
    for (std::size_t slot = 0; slot < table.history; ++slot) {
      for (std::size_t lane = 0; lane < block; ++lane) {
        const double* src = &out[(2 * slot * kHistoryLanes + lane) * span];
        std::copy(src, src + span,
                  &entries[(slot * inputs + first + lane) * span]);
      }
    }
  }
  return entries;
}

template <typename W>
const typename RoundTargetT<W>::EnergyTable& RoundTargetT<W>::built(
    const Instance& instance, bool sampled) const {
  SharedTable& shared = *instance.table;
  std::call_once(sampled ? shared.rows_built : shared.energy_built, [&] {
    (sampled ? shared.table.rows : shared.table.energy) =
        tabulate(instance, sampled);
  });
  return shared.table;
}

template <typename W>
const typename RoundTargetT<W>::EnergyTable& RoundTargetT<W>::energy_table(
    std::size_t index) const {
  SABLE_REQUIRE(index < instances_.size(), "S-box index out of range");
  built(instances_[index], false);
  return built(instances_[index], true);
}

template <typename W>
void RoundTargetT<W>::simulate_instance(std::size_t index,
                                        const std::uint8_t* xs,
                                        std::size_t count, double* out) const {
  SABLE_REQUIRE(index < instances_.size(), "S-box index out of range");
  kernel_loop(instances_[index], xs, count, false, out);
}

template <typename W>
void RoundTargetT<W>::gather(Instance& instance, const std::uint8_t* xs,
                             std::size_t count, const double* entries,
                             std::size_t span, double* dst,
                             std::size_t dst_stride) {
  const EnergyTable& table = instance.table->table;
  // A memoryless instance's lanes stay on slot 0.
  const auto slot_stride =
      static_cast<std::uint32_t>(table.history == 1 ? 0 : table.inputs);
  for (std::size_t t = 0; t < count; ++t) {
    std::uint32_t& slot = instance.lane_slot[t % kHistoryLanes];
    const double* entry = entries + (slot + xs[t]) * span;
    for (std::size_t l = 0; l < span; ++l) {
      dst[t * dst_stride + l] += entry[l];
    }
    slot = (xs[t] + 1u) * slot_stride;
  }
}

template <typename W>
void RoundTargetT<W>::pack_trace(std::size_t index, const std::uint8_t* pt,
                                 const std::uint8_t* key) {
  std::uint8_t x = 0;
  instance_inputs(index, pt, 1, key, &x);
  words_.resize(round_.sboxes[index].in_bits);
  pack_lane_words(&x, 1, words_);
}

template <typename W>
double RoundTargetT<W>::trace(const std::uint8_t* pt, const std::uint8_t* key,
                              double noise_sigma, Rng& rng) {
  const W one = lane_mask<W>(1);
  double energy = 0.0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    pack_trace(i, pt, key);
    cycle_instance(instances_[i], words_, one, scratch_);
    energy += scratch_.energy[0];
  }
  return energy + noise_sigma * rng.gaussian();
}

template <typename W>
void RoundTargetT<W>::trace_sampled(const std::uint8_t* pt,
                                    const std::uint8_t* key,
                                    double noise_sigma, Rng& rng,
                                    double* row) {
  const W one = lane_mask<W>(1);
  for (std::size_t l = 0; l < num_levels_; ++l) row[l] = 0.0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    pack_trace(i, pt, key);
    cycle_instance_sampled(instances_[i], words_, one, sampled_scratch_);
    for (std::size_t l = 0; l < sampled_scratch_.level_energy.size(); ++l) {
      row[l] += sampled_scratch_.level_energy[l][0];
    }
  }
  if (noise_sigma != 0.0) {
    for (std::size_t l = 0; l < num_levels_; ++l) {
      row[l] += noise_sigma * rng.gaussian();
    }
  }
}

template <typename W>
void RoundTargetT<W>::trace_batch(const std::uint8_t* pts, std::size_t count,
                                  const std::uint8_t* key, double noise_sigma,
                                  Rng& rng, double* out) {
  const std::size_t stride = round_.state_bytes();
  std::uint8_t xs[kGatherBlock];
  for (std::size_t base = 0; base < count; base += kGatherBlock) {
    const std::size_t n = std::min(kGatherBlock, count - base);
    std::fill(out + base, out + base + n, 0.0);
    // Fixed instance order keeps the energy summation deterministic.
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      instance_inputs(i, pts + base * stride, n, key, xs);
      gather(instances_[i], xs, n, built(instances_[i], false).energy.data(),
             1, out + base, 1);
    }
  }
  if (noise_sigma != 0.0) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] += noise_sigma * rng.gaussian();
    }
  }
}

template <typename W>
void RoundTargetT<W>::trace_batch_sampled(const std::uint8_t* pts,
                                          std::size_t count,
                                          const std::uint8_t* key,
                                          double noise_sigma, Rng& rng,
                                          double* rows) {
  const std::size_t width = num_levels_;
  SABLE_ASSERT(width > 0, "every logic style has at least one logic level");
  const std::size_t stride = round_.state_bytes();
  std::fill(rows, rows + count * width, 0.0);
  std::uint8_t xs[kGatherBlock];
  for (std::size_t base = 0; base < count; base += kGatherBlock) {
    const std::size_t n = std::min(kGatherBlock, count - base);
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const EnergyTable& table = built(instances_[i], true);
      instance_inputs(i, pts + base * stride, n, key, xs);
      // Instances with fewer logic levels finish earlier: they contribute
      // nothing to the tail columns (time-aligned from cycle start).
      gather(instances_[i], xs, n, table.rows.data(), table.levels,
             rows + base * width, width);
    }
  }
  if (noise_sigma != 0.0) {
    for (std::size_t i = 0; i < count * width; ++i) {
      rows[i] += noise_sigma * rng.gaussian();
    }
  }
}

template <typename W>
std::uint8_t RoundTargetT<W>::reference(std::size_t index,
                                        const std::uint8_t* pt,
                                        const std::uint8_t* key) const {
  const std::size_t x =
      round_.sub_word(pt, index) ^ round_.sub_word(key, index);
  return round_.sboxes[index].apply(static_cast<std::uint8_t>(x));
}

template <typename W>
const GateCircuit& RoundTargetT<W>::circuit(std::size_t index) const {
  SABLE_REQUIRE(index < instances_.size(), "S-box index out of range");
  return *instances_[index].circuit;
}

/// Instantiates the round-target kernels for lane word W.
#define SABLE_INSTANTIATE_ROUND_TARGET(W) template class RoundTargetT<W>;

/// with_lane_width() is a member template: the engine derives every wider
/// variant from its 64-lane prototype, so instantiate u64 -> W.
#define SABLE_INSTANTIATE_WITH_LANE_WIDTH(W)               \
  template RoundTargetT<W>                                 \
  RoundTargetT<std::uint64_t>::with_lane_width<W>() const;

}  // namespace sable
