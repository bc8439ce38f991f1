// Single-S-box DPA attack target: the N = 1 case of the 64-lane
// RoundKernel, kept as a thin adapter so byte-wide callers stay simple.
//
// The circuit computes the S-box only; the key addition happens at the
// stimulus (x = pt XOR key), which models the standard first-order DPA
// setting where the attacker predicts S-box output bits from plaintext and
// key guess. Encryptions run on the underlying kernel's simulators; for
// specs of up to 8 input bits the packed one-byte round state IS the
// plaintext byte, so the adapter forwards pointers without repacking.
#pragma once

#include <cstdint>

#include "crypto/round_target.hpp"

namespace sable {

class SboxTarget {
 public:
  SboxTarget(const SboxSpec& spec, LogicStyle style, const Technology& tech)
      : kernel_(single_sbox_round(spec, style), tech) {}

  /// Independent target over the same synthesized circuit: the (immutable)
  /// GateCircuit is shared, every piece of mutable simulator state is
  /// fresh and private to the clone (see RoundKernelT::clone()).
  SboxTarget clone() const { return SboxTarget(kernel_.clone()); }

  /// One encryption: applies pt XOR key, returns the power sample
  /// (circuit energy plus Gaussian noise of `noise_sigma` joules).
  double trace(std::uint8_t pt, std::uint8_t key, double noise_sigma,
               Rng& rng) {
    return kernel_.trace(&pt, &key, noise_sigma, rng);
  }

  /// Restores the fresh-construction simulator state in every lane (CMOS
  /// transition history, SABL node charge), so campaigns with the same
  /// seed reproduce the same traces no matter what ran before.
  void reset_state() { kernel_.reset_state(); }

  /// Reference S-box output for functional checks.
  std::uint8_t reference(std::uint8_t pt, std::uint8_t key) const {
    return kernel_.reference(0, &pt, &key);
  }

  const GateCircuit& circuit() const { return kernel_.circuit(0); }
  const SboxSpec& spec() const { return kernel_.round().sboxes.front(); }
  LogicStyle style() const { return kernel_.round().style; }

 private:
  explicit SboxTarget(RoundKernel kernel) : kernel_(std::move(kernel)) {}

  RoundKernel kernel_;
};

}  // namespace sable
