#include "crypto/round_target.hpp"

#include <algorithm>

#include "crypto/round_target_impl.hpp"
#include "util/error.hpp"

namespace sable {

const char* to_string(LogicStyle style) {
  switch (style) {
    case LogicStyle::kStaticCmos:
      return "static-CMOS";
    case LogicStyle::kSablGenuine:
      return "SABL-genuine";
    case LogicStyle::kSablFullyConnected:
      return "SABL-fully-connected";
    case LogicStyle::kSablEnhanced:
      return "SABL-enhanced";
    case LogicStyle::kWddlBalanced:
      return "WDDL-balanced";
    case LogicStyle::kWddlMismatched:
      return "WDDL-5%-mismatch";
  }
  SABLE_ASSERT(false, "unreachable logic style");
}

namespace {

// The bit-extraction counterpart (round_target_detail::extract_bits) lives
// in round_target_impl.hpp where the packing templates need it; depositing
// is only done by the non-template RoundSpec methods here.
void deposit_bits(std::uint8_t* state, std::size_t offset, std::size_t bits,
                  std::size_t value) {
  for (std::size_t b = 0; b < bits; ++b) {
    const std::size_t bit = offset + b;
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (bit & 7));
    if ((value >> b) & 1u) {
      state[bit >> 3] |= mask;
    } else {
      state[bit >> 3] &= static_cast<std::uint8_t>(~mask);
    }
  }
}

// Where one instance's sub-word sits in a packed state. Sub-words that
// sit inside one byte (all the built-in layouts) read and write with a
// single shift and mask; only byte-straddling instances take the per-bit
// path.
struct Placement {
  std::size_t offset;
  std::size_t bits;
  std::size_t byte;
  unsigned shift;
  bool in_byte;
};

Placement placement(std::size_t offset, std::size_t bits) {
  return {offset, bits, offset >> 3, static_cast<unsigned>(offset & 7),
          (offset & 7) + bits <= 8};
}

}  // namespace

// ---- RoundSpec ------------------------------------------------------------

std::size_t RoundSpec::state_bits() const {
  std::size_t bits = 0;
  for (const SboxSpec& spec : sboxes) bits += spec.in_bits;
  return bits;
}

std::size_t RoundSpec::bit_offset(std::size_t index) const {
  SABLE_REQUIRE(index < sboxes.size(), "S-box index out of range");
  std::size_t offset = 0;
  for (std::size_t i = 0; i < index; ++i) offset += sboxes[i].in_bits;
  return offset;
}

std::size_t RoundSpec::sub_word(const std::uint8_t* state,
                                std::size_t index) const {
  return round_target_detail::extract_bits(state, bit_offset(index),
                                           sboxes[index].in_bits);
}

void RoundSpec::set_sub_word(std::uint8_t* state, std::size_t index,
                             std::size_t value) const {
  const std::size_t bits = sboxes[index].in_bits;
  SABLE_REQUIRE(value < (std::size_t{1} << bits),
                "sub-word exceeds the instance's input width");
  deposit_bits(state, bit_offset(index), bits, value);
}

void RoundSpec::sub_words(const std::uint8_t* states, std::size_t count,
                          std::size_t index, std::uint8_t* out) const {
  const Placement p = placement(bit_offset(index), sboxes[index].in_bits);
  const std::size_t stride = state_bytes();
  if (p.in_byte) {
    const std::uint8_t* bytes = states + p.byte;
    const std::uint8_t mask = static_cast<std::uint8_t>((1u << p.bits) - 1u);
    for (std::size_t t = 0; t < count; ++t) {
      out[t] = static_cast<std::uint8_t>((bytes[t * stride] >> p.shift) & mask);
    }
    return;
  }
  for (std::size_t t = 0; t < count; ++t) {
    out[t] = static_cast<std::uint8_t>(round_target_detail::extract_bits(
        states + t * stride, p.offset, p.bits));
  }
}

std::vector<std::uint8_t> RoundSpec::pack_subkeys(
    const std::vector<std::size_t>& subkeys) const {
  SABLE_REQUIRE(subkeys.size() == sboxes.size(),
                "pack_subkeys needs one subkey per S-box instance");
  std::vector<std::uint8_t> state(state_bytes(), 0);
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    set_sub_word(state.data(), i, subkeys[i]);
  }
  return state;
}

void RoundSpec::fill_random_states(Rng& rng, std::size_t count,
                                   std::uint8_t* states) const {
  const std::size_t stride = state_bytes();
  std::fill(states, states + count * stride, std::uint8_t{0});
  // Per-instance placement, hoisted out of the state loop.
  std::vector<Placement> places;
  places.reserve(sboxes.size());
  std::size_t offset = 0;
  for (const SboxSpec& spec : sboxes) {
    places.push_back(placement(offset, spec.in_bits));
    offset += spec.in_bits;
  }
  for (std::size_t t = 0; t < count; ++t) {
    std::uint8_t* state = states + t * stride;
    for (const Placement& p : places) {
      const std::uint64_t value = rng.below(std::uint64_t{1} << p.bits);
      if (p.in_byte) {
        state[p.byte] |= static_cast<std::uint8_t>(value << p.shift);
      } else {
        deposit_bits(state, p.offset, p.bits, value);
      }
    }
  }
}

std::uint64_t round_spec_hash(const RoundSpec& round) {
  // FNV-1a over the functional fields only. Names stay out: two rounds
  // whose instances compute the same tables in the same style generate
  // identical traces, and the manifest check should agree.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(round.style));
  mix(round.num_sboxes());
  for (const SboxSpec& spec : round.sboxes) {
    mix(spec.in_bits);
    mix(spec.out_bits);
    mix(spec.table.size());
    for (std::uint8_t entry : spec.table) {
      h ^= entry;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

RoundSpec single_sbox_round(const SboxSpec& spec, LogicStyle style) {
  RoundSpec round;
  round.sboxes = {spec};
  round.style = style;
  return round;
}

RoundSpec present_round(std::size_t num_sboxes, LogicStyle style) {
  RoundSpec round;
  round.sboxes.assign(num_sboxes, present_spec());
  round.style = style;
  return round;
}

RoundSpec aes_subbytes_round(std::size_t num_sboxes, LogicStyle style) {
  RoundSpec round;
  round.sboxes.assign(num_sboxes, aes_spec());
  round.style = style;
  return round;
}

// ---- RoundTargetT ---------------------------------------------------------
//
// The member templates live in crypto/round_target_impl.hpp; this TU
// instantiates the portable lane words only. Word256/Word512 are
// instantiated by the per-ISA TUs under src/simd/ so their kernels carry
// the right target attributes in a runtime-dispatched binary.

SABLE_FOR_EACH_PORTABLE_LANE_WORD(SABLE_INSTANTIATE_ROUND_TARGET)
SABLE_FOR_EACH_PORTABLE_LANE_WORD(SABLE_INSTANTIATE_WITH_LANE_WIDTH)

}  // namespace sable
