// Deterministic random number generation for reproducible experiments.
//
// xoshiro256** (Blackman & Vigna) — fast, high-quality, and identical output
// on every platform, which matters because the DPA experiments must be
// re-runnable bit-for-bit.
//
// Normal variates come from a 256-layer Marsaglia–Tsang ziggurat. Its
// tables are computed at compile time from IEEE basic operations only, and
// ~98.5% of draws take one next() and no libm call, so the noise stream
// does not depend on the host's libm variant except on the rare wedge and
// tail paths (std::exp / std::log).
#pragma once

#include <cstdint>

namespace sable {

/// Deterministic 64-bit PRNG (xoshiro256**), seedable via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5ab1e5ab1e5ab1e5ULL);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Standard normal variate (256-layer ziggurat). A draw consumes one
  /// next() on the fast path, more only on its rejection paths, and never
  /// caches a value between calls.
  double gaussian();

  /// Bernoulli trial with probability p.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
};

}  // namespace sable
