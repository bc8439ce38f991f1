// Runtime CPU dispatch contract (util/cpu_dispatch): tier ordering and
// naming, the active tier as min(compiled, detected, cap), the process cap
// with its RAII scope guard, and the runtime lane-width list (the round
// kernels a caller may run here). The SABLE_DISPATCH environment
// variable is read once at first use and feeds the same cap these tests
// exercise directly, so it is covered by the set_dispatch_tier_cap tests
// (plus the CI job that runs the suite under SABLE_DISPATCH=portable).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "util/cpu_dispatch.hpp"
#include "util/lane_word.hpp"

namespace sable {
namespace {

TEST(CpuDispatchTest, TiersAreOrderedAndNamed) {
  EXPECT_LT(static_cast<int>(DispatchTier::kPortable),
            static_cast<int>(DispatchTier::kAvx2));
  EXPECT_LT(static_cast<int>(DispatchTier::kAvx2),
            static_cast<int>(DispatchTier::kAvx512));
  EXPECT_STREQ(to_string(DispatchTier::kPortable), "portable");
  EXPECT_STREQ(to_string(DispatchTier::kAvx2), "avx2");
  EXPECT_STREQ(to_string(DispatchTier::kAvx512), "avx512");
}

TEST(CpuDispatchTest, CompiledTierMatchesTheBuiltLaneWords) {
#if SABLE_HAVE_WORD512
  EXPECT_EQ(compiled_tier(), DispatchTier::kAvx512);
#elif SABLE_HAVE_WORD256
  EXPECT_EQ(compiled_tier(), DispatchTier::kAvx2);
#else
  EXPECT_EQ(compiled_tier(), DispatchTier::kPortable);
#endif
}

TEST(CpuDispatchTest, DetectedTierMatchesCpuFeatures) {
  const CpuFeatures& features = cpu_features();
  if (features.avx512f) {
    EXPECT_TRUE(features.avx2);  // every AVX-512F part has AVX2
    EXPECT_EQ(detected_tier(), DispatchTier::kAvx512);
  } else if (features.avx2) {
    EXPECT_EQ(detected_tier(), DispatchTier::kAvx2);
  } else {
    EXPECT_EQ(detected_tier(), DispatchTier::kPortable);
  }
}

// The sub-tier flags (avx512bw, avx512vbmi, gfni) gate optional
// instruction paths inside the AVX-512 pack kernels; they never pick the
// tier. On every real part the AVX-512 extensions are nested — BW
// requires F, VBMI requires BW — and the kernels rely on that nesting
// (byte_planes_64_gfni assumes VBMI's vpermb, which assumes BW's byte
// ops). GFNI carries no such implication: it has SSE/AVX encodings, so
// it is only ever consulted alongside the VBMI+BW check.
TEST(CpuDispatchTest, SubTierFlagsAreNestedAndTierIndependent) {
  const CpuFeatures& features = cpu_features();
  if (features.avx512vbmi) EXPECT_TRUE(features.avx512bw);
  if (features.avx512bw) EXPECT_TRUE(features.avx512f);
#if !defined(__x86_64__) && !defined(__i386__)
  EXPECT_FALSE(features.avx512bw);
  EXPECT_FALSE(features.avx512vbmi);
  EXPECT_FALSE(features.gfni);
#endif
  // The probe is cached: every call returns the same object, and capping
  // the dispatch tier must not re-probe or mask the raw feature bits.
  EXPECT_EQ(&cpu_features(), &features);
  ScopedDispatchTierCap cap(DispatchTier::kPortable);
  EXPECT_EQ(cpu_features().avx512bw, features.avx512bw);
  EXPECT_EQ(cpu_features().avx512vbmi, features.avx512vbmi);
  EXPECT_EQ(cpu_features().gfni, features.gfni);
}

TEST(CpuDispatchTest, ActiveTierIsTheMinimumOfCompiledDetectedAndCap) {
  const DispatchTier expected =
      std::min({compiled_tier(), detected_tier(), dispatch_tier_cap()});
  EXPECT_EQ(active_tier(), expected);
  for (DispatchTier cap : {DispatchTier::kPortable, DispatchTier::kAvx2,
                           DispatchTier::kAvx512}) {
    ScopedDispatchTierCap scoped(cap);
    EXPECT_EQ(active_tier(), std::min({compiled_tier(), detected_tier(), cap}));
  }
}

TEST(CpuDispatchTest, ScopedCapRestoresThePreviousCap) {
  const DispatchTier before = dispatch_tier_cap();
  {
    ScopedDispatchTierCap outer(DispatchTier::kAvx2);
    EXPECT_EQ(dispatch_tier_cap(), DispatchTier::kAvx2);
    {
      ScopedDispatchTierCap inner(DispatchTier::kPortable);
      EXPECT_EQ(dispatch_tier_cap(), DispatchTier::kPortable);
      EXPECT_EQ(active_tier(), DispatchTier::kPortable);
    }
    EXPECT_EQ(dispatch_tier_cap(), DispatchTier::kAvx2);
  }
  EXPECT_EQ(dispatch_tier_cap(), before);
}

TEST(CpuDispatchTest, RuntimeWidthsAreTheCompiledWidthsTheTierAllows) {
  const auto compiled = supported_lane_widths();
  const auto runtime = runtime_lane_widths();
  // Ascending, starts with the portable pair, subset of the compiled list.
  ASSERT_GE(runtime.size(), 2u);
  EXPECT_EQ(runtime[0], 64u);
  EXPECT_EQ(runtime[1], 128u);
  EXPECT_TRUE(std::is_sorted(runtime.begin(), runtime.end()));
  for (std::size_t width : runtime) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), width),
              compiled.end())
        << width;
  }
  EXPECT_EQ(max_runtime_lane_width(), runtime.back());

  // Widths above 128 require their ISA tier at runtime.
  const bool has256 =
      std::find(runtime.begin(), runtime.end(), 256u) != runtime.end();
  const bool has512 =
      std::find(runtime.begin(), runtime.end(), 512u) != runtime.end();
  EXPECT_EQ(has256, active_tier() >= DispatchTier::kAvx2 &&
                        std::find(compiled.begin(), compiled.end(), 256u) !=
                            compiled.end());
  EXPECT_EQ(has512, active_tier() >= DispatchTier::kAvx512 &&
                        std::find(compiled.begin(), compiled.end(), 512u) !=
                            compiled.end());
}

TEST(CpuDispatchTest, PortableCapCollapsesRuntimeWidthsToThePortablePair) {
  ScopedDispatchTierCap cap(DispatchTier::kPortable);
  const auto runtime = runtime_lane_widths();
  ASSERT_EQ(runtime.size(), 2u);
  EXPECT_EQ(runtime[0], 64u);
  EXPECT_EQ(runtime[1], 128u);
  EXPECT_EQ(max_runtime_lane_width(), 128u);
}

}  // namespace
}  // namespace sable
