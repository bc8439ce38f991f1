// Block-factored sufficient statistics for the streaming distinguishers.
//
// A per-trace Welford update does O(num_guesses) work per trace — a
// dependent divide plus a 2^in_bits guess loop for every sample. But a
// block's contribution to every per-guess moment factors through a tiny
// per-plaintext histogram: the prediction h[pt][g] only depends on the
// plaintext, so
//
//   Σ_i h[pt_i][g]          = Σ_p n_p · h[p][g]
//   Σ_i h[pt_i][g]·x_i      = Σ_p S_p · h[p][g]      (S_p = Σ_{i: pt_i=p} x_i)
//
// One O(count) histogram pass with no guess loop, then one dense
// contraction against the shared prediction table per block — a G×P GEMV
// for scalar CPA, a G×P · P×L GEMM for time-resolved CPA, partitioned
// counts/sums for DoM, and for second-order CPA the same GEMM over its
// per-plaintext level and centred-product bins (L + L(L−1)/2 wide). The
// kernels below are those two stages.
//
// Numerics: samples are accumulated relative to a caller-chosen shift
// (the block's first sample) so the per-plaintext sums carry the
// ~1e-15 J data-dependent variation instead of the ~1e-13 J energy
// offset; co-moments are shift-invariant and the accumulators convert
// the block sums back to Welford form before folding them in (see
// streaming.cpp), which keeps the scores within ~1e-13 of the two-pass
// formulation.
//
// Determinism: every kernel fixes the floating-point summation order per
// output element — histogram passes accumulate sequentially in trace
// order, contractions keep the plaintext loop outermost so each output
// element's addition chain is identical no matter how wide the vector
// unit is — and uses plain mul+add (never FMA; the build pins
// -ffp-contract=off), so all dispatch tiers produce bit-identical
// results. The sampled passes vectorize across levels and level pairs
// in eight-lane blocks whose per-lane arithmetic is the same at every
// tier; each output still gets one sequential chain in trace order.
// Block boundaries are the engine's fixed shard layout, making the
// block-factored scores bit-identical across num_threads × dispatch
// tiers.
//
// Dispatch follows the PR 7 transpose pattern: the bodies live in
// block_stats_impl.hpp templated on a tier index (the parameter only
// mints one symbol per tier), the portable instantiations compile in
// block_stats.cpp, and the AVX2/AVX-512 instantiations compile inside
// the #pragma GCC target regions of the existing per-ISA TUs under
// src/simd/ — selected once per block via block_stat_kernels(tier).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cpu_dispatch.hpp"
#include "util/lane_word.hpp"

namespace sable {

namespace detail {

// Histogram slots are always kBlockPts (the full uint8_t range), not
// num_plaintexts: any sub-plaintext byte lands in a valid slot, so the
// per-trace range check hoists out of the hot loop — the accumulator
// validates once per block that slots at and beyond num_plaintexts
// stayed empty.
inline constexpr std::size_t kBlockPts = 256;

/// Scalar histogram pass: zeroes counts[256]/sums[256], then for every
/// trace i adds 1 to counts[pts[i]] and (samples[i] - shift) to
/// sums[pts[i]], and accumulates Σ (samples[i] - shift)² into *sum_sq —
/// all sequentially in trace order.
template <int kTier>
void block_histogram_scalar(const std::uint8_t* pts, const double* samples,
                            std::size_t count, double shift,
                            std::uint64_t* counts, double* sums,
                            double* sum_sq);

// The sampled passes work on blocks of kLevelBlock consecutive levels,
// one 8-lane vector each (two AVX2 or four SSE2 registers; the lane
// arithmetic is the same at every tier). A row of `width` levels spans
// level_blocks(width) blocks; lanes past `width` in the last block are
// padding that no output ever reads.
inline constexpr std::size_t kLevelBlock = 8;

constexpr std::size_t level_blocks(std::size_t width) {
  return (width + kLevelBlock - 1) / kLevelBlock;
}

/// Valid levels of level block b at `width`.
constexpr std::size_t block_levels(std::size_t width, std::size_t b) {
  return width - b * kLevelBlock < kLevelBlock ? width - b * kLevelBlock
                                               : kLevelBlock;
}

/// Traces a sampled pass processes per tile: the pair pass centres a
/// tile into its work space, then runs every pair chunk over it with the
/// chunk's accumulators held in registers.
inline constexpr std::size_t kTileTraces = 64;

/// The pair pass enumerates the L(L−1)/2 level pairs in chunks of
/// kLevelBlock, grouped by (block of i, block of j): a diagonal group
/// (both levels in block b, r valid levels) takes ceil(r(r−1)/2 / 8)
/// chunks, a cross group (block bi < bj) one chunk per valid level of bj.
constexpr std::size_t pair_chunks(std::size_t width) {
  std::size_t chunks = 0;
  for (std::size_t b = 0; b < level_blocks(width); ++b) {
    const std::size_t r = block_levels(width, b);
    chunks += (r * (r - 1) / 2 + kLevelBlock - 1) / kLevelBlock;
    chunks += width - b * kLevelBlock - r;  // one per later level
  }
  return chunks;
}

/// Doubles of work space block_histogram_sampled needs at `width`.
constexpr std::size_t sampled_work_size(std::size_t width) {
  return kLevelBlock + (kBlockPts + 1) * level_blocks(width) * kLevelBlock;
}

/// Doubles of work space block_histogram_pairs needs at `width`.
constexpr std::size_t pairs_work_size(std::size_t width) {
  const std::size_t stride = level_blocks(width) * kLevelBlock;
  const std::size_t pair_lanes = pair_chunks(width) * kLevelBlock;
  return kLevelBlock + kTileTraces * stride + kBlockPts * (stride + pair_lanes) +
         3 * stride + 3 * pair_lanes;
}

/// The 64-byte aligned start of a sampled kernel's work space (the
/// *_work_size functions reserve kLevelBlock doubles of slack for it).
inline double* align_work(double* work) {
  const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(work);
  return work + (64 - at % 64) % 64 / sizeof(double);
}

/// Sampled-row histogram pass: counts as above; sums is [pt*width + l]
/// accumulating (row[l] - shifts[l]); sum_sq[l] gets the per-column
/// Σ (row[l] - shifts[l])². Every output is zeroed first and every
/// chain runs sequentially in trace order. Each level block's Σ d²
/// stays in a register across the block's traces, and the per-slot sums
/// accumulate in `work` (sampled_work_size(width) doubles) at a padded
/// stride before they are packed into `sums`. Rows are read only within
/// the caller's count·width doubles.
template <int kTier>
void block_histogram_sampled(const std::uint8_t* pts, const double* rows,
                             std::size_t count, std::size_t width,
                             const double* shifts, std::uint64_t* counts,
                             double* sums, double* sum_sq, double* work);

/// Second-order pair pass (StreamingSecondOrderCpa): centres every
/// sample as dx_l = (row[l] - shifts[l]) - centre[l] — shift first, so a
/// constant column centres to an exact 0.0 — and bins per plaintext, in
/// bins[p*(width+Q) + k], Σ dx_l (k = l < width) and Σ dx_i·dx_j
/// (k = width + q, q the lexicographic index of the pair i < j among the
/// Q = width(width−1)/2 pairs). Also accumulates the guess-free sums
/// sum_sq[l] = Σ dx_l², m3_iij[q] = Σ dx_i·(dx_i dx_j), m3_ijj[q] =
/// Σ (dx_i dx_j)·dx_j and m4[q] = Σ (dx_i dx_j)². Every output is zeroed
/// first and every chain runs sequentially in trace order.
///
/// Tile by tile, the pass centres kTileTraces rows into `work`
/// (pairs_work_size(width) doubles) at a stride padded to whole level
/// blocks, then runs the pair chunks (see pair_chunks) over the tile:
/// a chunk's operands are in-register permutes of the centred level
/// blocks, and its m3/m4 accumulators stay in registers across the tile.
/// The chunk-ordered results are put back in lexicographic pair order at
/// the end. Rows are read only within the caller's count·width doubles.
template <int kTier>
void block_histogram_pairs(const std::uint8_t* pts, const double* rows,
                           std::size_t count, std::size_t width,
                           const double* shifts, const double* centre,
                           double* bins, double* sum_sq, double* m3_iij,
                           double* m3_ijj, double* m4, double* work);

/// Count contraction: sum_h[g] = Σ_p counts[p]·pred[p*G+g] and
/// sum_h2[g] = Σ_p counts[p]·pred[p*G+g]², zeroing the outputs first.
/// The per-guess prediction moments of the whole block, as one GEMV.
template <int kTier>
void block_contract_counts(const double* pred, const std::uint64_t* counts,
                           std::size_t num_pts, std::size_t num_guesses,
                           double* sum_h, double* sum_h2);

/// Sum contraction (the co-moment GEMM): r[l*G+g] = Σ_p sums[p*width+l]
/// · pred[p*G+g], zeroing r first; scalar CPA is the width-1 case.
/// Plaintext rows with zero count are skipped (their sums are exact
/// zeros), which keeps the cost O(min(count, P) · width · G).
template <int kTier>
void block_contract_sums(const double* pred, const double* sums,
                         const std::uint64_t* counts, std::size_t num_pts,
                         std::size_t width, std::size_t num_guesses,
                         double* r);

/// DoM contraction: partitions the block's per-plaintext counts/sums by
/// the predicted bit, accumulating both partitions directly (branchless
/// 0/1 weights, no end-of-loop subtraction). Outputs are zeroed first.
template <int kTier>
void block_contract_dom(const std::uint8_t* pred_bit,
                        const std::uint64_t* counts, const double* sums,
                        std::size_t num_pts, std::size_t num_guesses,
                        double* sum0, double* sum1, std::uint64_t* cnt0,
                        std::uint64_t* cnt1);

// The AVX2/AVX-512 instantiations live in src/simd/kernels_avx2.cpp and
// kernels_avx512.cpp (explicit instantiations inside their #pragma GCC
// target regions); these declarations stop every other TU from minting
// portable-codegen copies of the same symbols.
#define SABLE_DECLARE_BLOCK_STATS(TIER)                                       \
  extern template void block_histogram_scalar<TIER>(                          \
      const std::uint8_t*, const double*, std::size_t, double,                \
      std::uint64_t*, double*, double*);                                      \
  extern template void block_histogram_sampled<TIER>(                         \
      const std::uint8_t*, const double*, std::size_t, std::size_t,           \
      const double*, std::uint64_t*, double*, double*, double*);              \
  extern template void block_histogram_pairs<TIER>(                           \
      const std::uint8_t*, const double*, std::size_t, std::size_t,           \
      const double*, const double*, double*, double*, double*, double*,       \
      double*, double*);                                                      \
  extern template void block_contract_counts<TIER>(                           \
      const double*, const std::uint64_t*, std::size_t, std::size_t,          \
      double*, double*);                                                      \
  extern template void block_contract_sums<TIER>(                             \
      const double*, const double*, const std::uint64_t*, std::size_t,        \
      std::size_t, std::size_t, double*);                                     \
  extern template void block_contract_dom<TIER>(                              \
      const std::uint8_t*, const std::uint64_t*, const double*, std::size_t,  \
      std::size_t, double*, double*, std::uint64_t*, std::uint64_t*);

SABLE_DECLARE_BLOCK_STATS(0)
#if SABLE_HAVE_WORD256
SABLE_DECLARE_BLOCK_STATS(1)
#endif
#if SABLE_HAVE_WORD512
SABLE_DECLARE_BLOCK_STATS(2)
#endif

}  // namespace detail

/// The block-statistics kernel set of one dispatch tier, resolved once
/// per block (the tier probe stays off the per-trace path).
struct BlockStatKernels {
  void (*histogram_scalar)(const std::uint8_t*, const double*, std::size_t,
                           double, std::uint64_t*, double*, double*);
  void (*histogram_sampled)(const std::uint8_t*, const double*, std::size_t,
                            std::size_t, const double*, std::uint64_t*,
                            double*, double*, double*);
  void (*histogram_pairs)(const std::uint8_t*, const double*, std::size_t,
                          std::size_t, const double*, const double*, double*,
                          double*, double*, double*, double*, double*);
  void (*contract_counts)(const double*, const std::uint64_t*, std::size_t,
                          std::size_t, double*, double*);
  void (*contract_sums)(const double*, const double*, const std::uint64_t*,
                        std::size_t, std::size_t, std::size_t, double*);
  void (*contract_dom)(const std::uint8_t*, const std::uint64_t*,
                       const double*, std::size_t, std::size_t, double*,
                       double*, std::uint64_t*, std::uint64_t*);
};

/// Widest kernel set the given tier may execute (every body computes
/// bit-identical results; the tiers differ only in vector width).
const BlockStatKernels& block_stat_kernels(DispatchTier tier);

/// One block's scalar histogram, the first stage of every first-order
/// scalar accumulator (CPA, DoM, MTD): over the block's `count` traces,
/// the per-slot trace counts and Σ (x − shift) for all kBlockPts
/// sub-plaintext slots, plus Σ (x − shift)², with shift = the block's
/// first sample. It is a function of (sub-plaintexts, samples) alone, so
/// the shard feed computes it once per attacked instance and shard and
/// every scalar accumulator of that instance contracts the same one.
struct ScalarHistogram {
  std::size_t count = 0;
  double shift = 0.0;
  double sum_sq = 0.0;
  std::array<std::uint64_t, detail::kBlockPts> counts{};
  std::array<double, detail::kBlockPts> sums{};

  /// Runs the active tier's histogram_scalar pass over the block (every
  /// tier's result is bit-identical). An empty block leaves count 0.
  void compute(const std::uint8_t* pts, const double* samples,
               std::size_t count);
};

/// One block's time-resolved histogram, the first stage of both sampled
/// accumulators (MultiCpa, and second-order CPA's pass 1): over the
/// block's `count` rows of `width` levels, the per-slot trace counts and
/// per-slot per-level Σ (x_l − shift_l) for all kBlockPts sub-plaintext
/// slots, plus the per-level Σ (x_l − shift_l)², with shift = the
/// block's first row. Like ScalarHistogram it is a function of
/// (sub-plaintexts, rows) alone, so the shard feed computes one per
/// attacked instance and shard and every sampled accumulator of that
/// instance contracts it.
struct SampledHistogram {
  std::size_t count = 0;
  std::size_t width = 0;
  std::array<std::uint64_t, detail::kBlockPts> counts{};
  std::vector<double> shifts;  // [width]
  std::vector<double> sums;    // [kBlockPts * width]
  std::vector<double> sum_sq;  // [width]

  /// Runs the active tier's histogram_sampled pass over the block (every
  /// tier's result is bit-identical), in the calling thread's block
  /// scratch. An empty block leaves count 0.
  void compute(const std::uint8_t* pts, const double* rows,
               std::size_t count, std::size_t width);
};

namespace detail {

/// The hoisted form of the per-trace range check: the histogram pass
/// binned every sub-plaintext byte into one of the kBlockPts slots, so
/// one sweep over the slots past num_plaintexts validates the whole
/// block. Throws InvalidArgument on an out-of-range plaintext.
void require_block_pts(const std::uint64_t* counts,
                       std::size_t num_plaintexts);

/// The once-per-block non-finite check: every histogram pass (scalar,
/// sampled, pair) sums the squares of the shifted samples, and a NaN or
/// ±Inf sample leaves that sum non-finite (so does a sample whose
/// shifted square overflows), so checking the `width` column sums
/// validates the whole block. Throws InvalidArgument.
void require_finite_block(const double* sum_sq, std::size_t width);

/// Working set of the block passes. Per thread rather than per
/// accumulator: shard states, MTD snapshots and merged prefixes then
/// carry only their logical moments, and a worker reuses one set across
/// every block it accumulates, so the steady state never allocates.
struct BlockScratch {
  ScalarHistogram scalar;             // a block's private scalar histogram
  SampledHistogram sampled;           // a block's private sampled one
  std::vector<double> work;           // the sampled kernels' work space
  std::vector<double> sum_h;          // [num_guesses]  (DoM: sum0)
  std::vector<double> sum_h2;         // [num_guesses]  (DoM: sum1)
  std::vector<std::uint64_t> cnt0;    // [num_guesses]  (DoM partitions)
  std::vector<std::uint64_t> cnt1;    // [num_guesses]
  std::vector<double> r;              // [width * num_guesses]
  std::vector<double> col_sum;        // [width]
  std::vector<double> col_mean;       // [width]
  std::vector<double> col_m2;         // [width]
  // The second-order pair pass sizes these itself (dpa/second_order.cpp).
  std::vector<double> centre;              // [levels]
  std::vector<double> sum_sq;              // [levels]  Σ dx²
  std::vector<double> bins;                // [kBlockPts * (levels + pairs)]
  std::vector<double> pred_centred;        // [num_plaintexts * num_guesses]
  std::vector<double> c2;                  // [levels * levels]
  std::vector<double> m3_iij;              // [pairs]
  std::vector<double> m3_ijj;              // [pairs]
  std::vector<double> m4;                  // [pairs]
  std::vector<double> fold;                // [2 * (levels + num_guesses)]
};

/// The calling thread's scratch, as is.
BlockScratch& block_scratch();

/// The calling thread's scratch with the first-order fields sized for
/// `width` sample columns and `num_guesses` guesses.
BlockScratch& block_scratch(std::size_t width, std::size_t num_guesses);

}  // namespace detail

}  // namespace sable
