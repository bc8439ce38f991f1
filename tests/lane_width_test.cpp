// Lane-width equivalence suite: the batch kernels are generic over the
// lane word (64-bit, portable 128-bit pair, AVX2/AVX-512 vectors when
// compiled in), and the contract is that the word is a pure throughput
// knob. Campaigns gather from energy tables built by the 64-lane kernel,
// so the wide words run in round kernels only: at every runtime width, a
// RoundKernelT<W> must tabulate every instance bitwise equal to the
// campaign target's table, and its kernel loop must match the 64-lane
// loop across ragged tails and the static-CMOS logical 64-lane history.
// Also covers the lane word primitives and the central lane_mask() helper
// (including its abort on out-of-range counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/round_target.hpp"
#include "lane_reference.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/lane_word.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

std::vector<LogicStyle> all_styles() {
  return {LogicStyle::kStaticCmos,         LogicStyle::kSablGenuine,
          LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
          LogicStyle::kWddlBalanced,       LogicStyle::kWddlMismatched};
}

// ---- lane word primitives -------------------------------------------------

// Whether the running CPU can execute kernels of lane word W. The wide
// words always exist in a runtime-dispatched binary; executing their
// kernels needs the matching ISA, so wide-word tests skip on older CPUs
// (the CI runners have AVX2 but not AVX-512).
template <typename W>
bool cpu_can_run() {
  constexpr std::size_t kLanes = LaneTraits<W>::kLanes;
  if (kLanes <= 128) return true;
  if (kLanes == 256) return cpu_features().avx2;
  return cpu_features().avx512f;
}

template <typename W>
struct LaneWordTest : ::testing::Test {};

using LaneWordTypes = ::testing::Types<std::uint64_t, Word128
#if SABLE_HAVE_WORD256
                                       ,
                                       Word256
#endif
#if SABLE_HAVE_WORD512
                                       ,
                                       Word512
#endif
                                       >;
TYPED_TEST_SUITE(LaneWordTest, LaneWordTypes);

// This TU is compiled for the base architecture, so it may only touch wide
// words through the memcpy-based chunk helpers and const-ref/scalar entry
// points — passing or returning a wide word by value across the
// portable/ISA boundary is the one thing the multi-ISA build must never do
// (see util/lane_word.hpp). The intrinsic bitwise operators are exercised
// end to end by the kernel checks below: a broken AND/OR/XOR cannot
// produce tables bit-identical to the 64-lane kernel's.
TYPED_TEST(LaneWordTest, ChunkRoundTripAndLaneHelpers) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  static_assert(T::kLanes == 64 * T::kChunks);
  if (!cpu_can_run<W>()) GTEST_SKIP() << "CPU lacks the ISA for this width";
  Rng rng(0x1A9E);
  for (int round = 0; round < 16; ++round) {
    std::uint64_t a[T::kChunks], out[T::kChunks];
    bool expect_any = false;
    for (std::size_t j = 0; j < T::kChunks; ++j) {
      a[j] = rng.next();
      expect_any |= a[j] != 0;
    }
    const W wa = lane_from_chunks<W>(a);
    lane_chunks(wa, out);
    for (std::size_t j = 0; j < T::kChunks; ++j) EXPECT_EQ(out[j], a[j]);
    EXPECT_EQ(lane_any(wa), expect_any);
    double energy[T::kLanes] = {};
    lane_fill_selected(wa, 1.0, energy);
    for (std::size_t lane = 0; lane < T::kLanes; ++lane) {
      EXPECT_EQ(energy[lane],
                static_cast<double>((a[lane / 64] >> (lane % 64)) & 1u))
          << "lane " << lane;
    }
  }
  const std::uint64_t zeros[T::kChunks] = {};
  EXPECT_FALSE(lane_any(lane_from_chunks<W>(zeros)));
  EXPECT_TRUE(lane_any(lane_mask<W>(1)));
  EXPECT_TRUE(lane_any(lane_mask<W>(T::kLanes)));
}

TYPED_TEST(LaneWordTest, LaneMaskSetsExactlyTheFirstCountLanes) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                            std::size_t{63}, std::size_t{64},
                            std::min<std::size_t>(T::kLanes, 65),
                            std::min<std::size_t>(T::kLanes, 129),
                            T::kLanes - 1, T::kLanes}) {
    std::uint64_t chunks[T::kChunks];
    lane_chunks(lane_mask<W>(count), chunks);
    std::size_t total = 0;
    for (std::size_t j = 0; j < T::kChunks; ++j) {
      total += static_cast<std::size_t>(std::popcount(chunks[j]));
      // Set lanes must be the prefix: chunk j is all-ones below the count
      // boundary, a low-bits mask at it, zero above.
      const std::size_t low = 64 * j;
      const std::uint64_t expected =
          count <= low ? 0
          : count >= low + 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (count - low)) - 1;
      EXPECT_EQ(chunks[j], expected) << "count " << count << " chunk " << j;
    }
    EXPECT_EQ(total, count);
  }
}

TYPED_TEST(LaneWordTest, PackLaneWordsTransposesEveryLane) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  if (!cpu_can_run<W>()) GTEST_SKIP() << "CPU lacks the ISA for this width";
  constexpr std::size_t kVars = 5;
  Rng rng(0x9ACC);
  for (std::size_t count : {T::kLanes, T::kLanes - 7, std::size_t{1}}) {
    std::vector<std::uint64_t> assignments(count);
    for (auto& a : assignments) a = rng.below(std::uint64_t{1} << kVars);
    std::vector<W> words(kVars);
    pack_lane_words(assignments.data(), count, words);
    for (std::size_t v = 0; v < kVars; ++v) {
      std::uint64_t chunks[T::kChunks];
      lane_chunks(words[v], chunks);
      for (std::size_t lane = 0; lane < T::kLanes; ++lane) {
        const std::uint64_t bit = (chunks[lane / 64] >> (lane % 64)) & 1u;
        const std::uint64_t expected =
            lane < count ? (assignments[lane] >> v) & 1u : 0u;
        EXPECT_EQ(bit, expected) << "var " << v << " lane " << lane;
      }
    }
  }
}

// lane_mask is the single source of tail-batch masks; a count outside
// [1, kLanes] means an upstream kernel mis-sliced a batch, which must
// abort rather than silently simulate phantom traces.
TEST(LaneMaskDeathTest, AbortsOnOutOfRangeCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(lane_mask<std::uint64_t>(0), "lane_mask");
  EXPECT_DEATH(lane_mask<std::uint64_t>(65), "lane_mask");
  EXPECT_DEATH(lane_mask<Word128>(129), "lane_mask");
}

// ---- round kernels at every width -----------------------------------------

// The checks one round kernel of width W must pass against the campaign
// target `target` (whose tables the 64-lane kernel builds): every
// instance's table shape and entries, scalar and time-resolved, bitwise
// equal; and the kernel loop over `xs` equal to the 64-lane loop's.
template <typename W>
void expect_kernel_matches(const RoundTarget& target,
                           const std::vector<std::uint8_t>& xs,
                           const std::string& where) {
  const RoundKernelT<W> kernel(target.round(), kTech,
                               target.kernel().circuits());
  ASSERT_EQ(kernel.num_levels(), target.num_levels()) << where;
  for (std::size_t i = 0; i < target.round().num_sboxes(); ++i) {
    const EnergyTable& table = target.energy_table(i);
    const EnergyTable shape = kernel.table_shape(i);
    EXPECT_EQ(shape.inputs, table.inputs) << where;
    EXPECT_EQ(shape.history, table.history) << where;
    EXPECT_EQ(shape.levels, table.levels) << where;
    EXPECT_EQ(kernel.tabulate(i, false), table.energy)
        << where << " instance " << i;
    EXPECT_EQ(kernel.tabulate(i, true), table.rows)
        << where << " instance " << i;
  }
  // Inputs masked to instance 0's width: the loop takes keyed sub-words.
  const std::size_t mask =
      (std::size_t{1} << target.round().sboxes[0].in_bits) - 1;
  std::vector<std::uint8_t> inputs(xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    inputs[k] = static_cast<std::uint8_t>(xs[k] & mask);
  }
  std::vector<double> expected(inputs.size());
  std::vector<double> got(inputs.size());
  target.kernel().simulate_instance(0, inputs.data(), inputs.size(),
                                    expected.data());
  kernel.simulate_instance(0, inputs.data(), inputs.size(), got.data());
  EXPECT_EQ(got, expected) << where << " kernel loop";
}

TEST(LaneWidthTest, KernelsMatchTheCampaignTablesAtEveryWidth) {
  // 777 inputs leave a partial tail word at every width (777 = 12*64 + 9)
  // and carry static-CMOS history across words.
  std::vector<std::uint8_t> xs(777);
  Rng rng(0x7A11);
  for (std::uint8_t& x : xs) x = static_cast<std::uint8_t>(rng.below(256));
  for (LogicStyle style : all_styles()) {
    for (const RoundSpec& round : table_test_rounds(style)) {
      const RoundTarget target(round, kTech);
      for (std::size_t width : runtime_lane_widths()) {
        const std::string where = std::string(to_string(style)) + " n " +
                                  std::to_string(round.num_sboxes()) +
                                  " bits " +
                                  std::to_string(round.state_bits()) +
                                  " width " + std::to_string(width);
        switch (width) {
          case 64:
            expect_kernel_matches<std::uint64_t>(target, xs, where);
            break;
          case 128:
            expect_kernel_matches<Word128>(target, xs, where);
            break;
#if SABLE_HAVE_WORD256
          case 256:
            expect_kernel_matches<Word256>(target, xs, where);
            break;
#endif
#if SABLE_HAVE_WORD512
          case 512:
            expect_kernel_matches<Word512>(target, xs, where);
            break;
#endif
          default:
            FAIL() << "unexpected runtime lane width " << width;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sable
