// Portable-tier instantiations of the block-statistics kernels, the
// per-tier kernel-set selection and the per-thread block scratch. The
// AVX2/AVX-512 instantiations compile in src/simd/kernels_avx2.cpp /
// kernels_avx512.cpp (inside their #pragma GCC target regions) so this
// TU stays base-architecture clean.
#include "dpa/block_stats.hpp"

#include <algorithm>
#include <cmath>

#include "dpa/block_stats_impl.hpp"
#include "util/error.hpp"

namespace sable {

namespace detail {

SABLE_INSTANTIATE_BLOCK_STATS(0)

void require_block_pts(const std::uint64_t* counts,
                       std::size_t num_plaintexts) {
  for (std::size_t p = num_plaintexts; p < kBlockPts; ++p) {
    SABLE_REQUIRE(counts[p] == 0, "plaintext out of range");
  }
}

void require_finite_block(const double* sum_sq, std::size_t width) {
  for (std::size_t l = 0; l < width; ++l) {
    SABLE_REQUIRE(std::isfinite(sum_sq[l]),
                  "trace samples must be finite (the block holds a NaN or "
                  "Inf sample)");
  }
}

BlockScratch& block_scratch() {
  thread_local BlockScratch scratch;
  return scratch;
}

BlockScratch& block_scratch(std::size_t width, std::size_t num_guesses) {
  BlockScratch& scratch = block_scratch();
  scratch.sum_h.resize(num_guesses);
  scratch.sum_h2.resize(num_guesses);
  scratch.cnt0.resize(num_guesses);
  scratch.cnt1.resize(num_guesses);
  scratch.r.resize(width * num_guesses);
  scratch.col_sum.resize(width);
  scratch.col_mean.resize(width);
  scratch.col_m2.resize(width);
  return scratch;
}

}  // namespace detail

namespace {

template <int kTier>
constexpr BlockStatKernels tier_kernels() {
  return BlockStatKernels{
      &detail::block_histogram_scalar<kTier>,
      &detail::block_histogram_sampled<kTier>,
      &detail::block_histogram_pairs<kTier>,
      &detail::block_contract_counts<kTier>,
      &detail::block_contract_sums<kTier>,
      &detail::block_contract_dom<kTier>,
  };
}

}  // namespace

void ScalarHistogram::compute(const std::uint8_t* pts, const double* samples,
                              std::size_t n) {
  count = n;
  if (n == 0) return;
  shift = samples[0];
  block_stat_kernels(active_tier())
      .histogram_scalar(pts, samples, n, shift, counts.data(), sums.data(),
                        &sum_sq);
}

void SampledHistogram::compute(const std::uint8_t* pts, const double* rows,
                               std::size_t n, std::size_t levels) {
  count = n;
  width = levels;
  if (n == 0) return;
  shifts.assign(rows, rows + levels);
  sums.resize(detail::kBlockPts * levels);
  sum_sq.resize(levels);
  std::vector<double>& work = detail::block_scratch().work;
  work.resize(std::max(work.size(), detail::sampled_work_size(levels)));
  block_stat_kernels(active_tier())
      .histogram_sampled(pts, rows, n, levels, shifts.data(), counts.data(),
                         sums.data(), sum_sq.data(), work.data());
}

const BlockStatKernels& block_stat_kernels(DispatchTier tier) {
#if SABLE_HAVE_WORD512
  if (tier >= DispatchTier::kAvx512) {
    static constexpr BlockStatKernels kAvx512 = tier_kernels<2>();
    return kAvx512;
  }
#endif
#if SABLE_HAVE_WORD256
  if (tier >= DispatchTier::kAvx2) {
    static constexpr BlockStatKernels kAvx2 = tier_kernels<1>();
    return kAvx2;
  }
#endif
  (void)tier;
  static constexpr BlockStatKernels kPortable = tier_kernels<0>();
  return kPortable;
}

}  // namespace sable
