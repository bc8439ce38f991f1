// Runtime CPU dispatch for the bit-parallel kernels.
//
// The build compiles portable, AVX2 and AVX-512 kernel instantiations
// into one binary (portable only where the compiler lacks GCC's multi-ISA
// targets); this header is how the kernels decide — once per call, never
// per trace — which of them this machine may run:
//
//   cpu_features()   cached CPUID probe (what the CPU has)
//   compiled_tier()  widest tier whose kernels are in this binary
//   active_tier()    min(compiled, detected, cap) — what dispatch uses
//
// The cap exists for pinning and testing: the SABLE_DISPATCH environment
// variable (`portable` | `avx2` | `avx512`, read once at first use) caps a
// whole process, and ScopedDispatchTierCap caps a scope so the test suite
// can prove bit-identity of the same campaign across tiers on one machine.
//
// runtime_lane_widths() intersects the compiled widths with the active
// tier: the round kernels (crypto/round_target.hpp) a caller may run
// here.
#pragma once

#include <cstddef>
#include <vector>

namespace sable {

/// SIMD capabilities of the executing CPU that the kernels care about.
/// avx2/avx512f pick the dispatch tier; the remaining flags gate optional
/// instruction paths inside a tier (the AVX-512 pack kernels use BW's
/// vpmovb2m when present and GFNI's vgf2p8affineqb + VBMI's vpermb when
/// both are — each falls back to plain AVX-512F/AVX2 code otherwise).
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vbmi = false;
  bool gfni = false;
};

/// The executing CPU's features, probed once and cached (thread-safe).
const CpuFeatures& cpu_features();

/// Kernel ISA tiers, ordered: a tier can run everything below it.
enum class DispatchTier { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase name ("portable", "avx2", "avx512") for logs/JSON.
const char* to_string(DispatchTier tier);

/// Widest tier whose kernel instantiations are compiled into this binary
/// (fixed at build time by the compiler probe in CMakeLists.txt, which
/// defines SABLE_DISPATCH_AVX2/AVX512 where the compiler supports them).
DispatchTier compiled_tier();

/// Widest tier the executing CPU supports, independent of what was built.
DispatchTier detected_tier();

/// The tier dispatch actually uses: min(compiled, detected, cap).
DispatchTier active_tier();

/// Caps active_tier() at `cap` for the whole process and returns the
/// previous cap; kAvx512 means "uncapped". The initial cap comes from the
/// SABLE_DISPATCH environment variable (unset → uncapped). Engines consult
/// the cap per campaign/shard, so changing it mid-campaign has no effect
/// on traces already streaming.
DispatchTier set_dispatch_tier_cap(DispatchTier cap);

/// Currently effective cap (kAvx512 when uncapped).
DispatchTier dispatch_tier_cap();

/// RAII tier cap for tests: forces campaigns in scope onto a lower tier,
/// restores the previous cap on destruction.
class ScopedDispatchTierCap {
 public:
  explicit ScopedDispatchTierCap(DispatchTier cap)
      : prev_(set_dispatch_tier_cap(cap)) {}
  ~ScopedDispatchTierCap() { set_dispatch_tier_cap(prev_); }
  ScopedDispatchTierCap(const ScopedDispatchTierCap&) = delete;
  ScopedDispatchTierCap& operator=(const ScopedDispatchTierCap&) = delete;

 private:
  DispatchTier prev_;
};

/// Lane widths runnable right now: the compiled-in widths (see
/// supported_lane_widths() in util/lane_word.hpp) intersected with the
/// active dispatch tier. Ascending; always contains 64 and 128.
std::vector<std::size_t> runtime_lane_widths();

/// Widest runnable lane width.
std::size_t max_runtime_lane_width();

}  // namespace sable
