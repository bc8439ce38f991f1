// Definitions of the block-statistics kernel templates declared in
// dpa/block_stats.hpp. Included by exactly the TUs that instantiate
// them: dpa/block_stats.cpp for the portable tier and the per-ISA TUs
// under src/simd/ (inside their #pragma GCC target regions) for the
// AVX2/AVX-512 tiers — the tier template parameter only mints a distinct
// symbol per ISA; the bodies are identical and rely on autovectorization
// under the including TU's target.
//
// Determinism rules every body obeys (see block_stats.hpp):
//  - scalar floating-point reductions (sum_sq, and the histogram scatter)
//    accumulate sequentially in trace order — GCC never reorders FP
//    reductions without -fassociative-math, so these stay scalar chains
//    at every tier;
//  - contraction loops keep the plaintext loop outermost and vectorize
//    only across independent output elements (guess/level axis), so each
//    output's addition chain is the same at every vector width;
//  - plain mul+add only, no std::fma (the build pins -ffp-contract=off;
//    FMA at some tiers but not others would break cross-tier
//    bit-identity).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dpa/block_stats.hpp"

namespace sable {

namespace detail {

template <int kTier>
void block_histogram_scalar(const std::uint8_t* pts, const double* samples,
                            std::size_t count, double shift,
                            std::uint64_t* counts, double* sums,
                            double* sum_sq) {
  for (std::size_t p = 0; p < kBlockPts; ++p) {
    counts[p] = 0;
    sums[p] = 0.0;
  }
  double q = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pts[i];
    const double d = samples[i] - shift;
    counts[p] += 1;
    sums[p] += d;
    q += d * d;
  }
  *sum_sq = q;
}

template <int kTier>
void block_histogram_sampled(const std::uint8_t* pts, const double* rows,
                             std::size_t count, std::size_t width,
                             const double* shifts, std::uint64_t* counts,
                             double* sums, double* sum_sq) {
  for (std::size_t p = 0; p < kBlockPts; ++p) counts[p] = 0;
  for (std::size_t j = 0; j < kBlockPts * width; ++j) sums[j] = 0.0;
  for (std::size_t l = 0; l < width; ++l) sum_sq[l] = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pts[i];
    counts[p] += 1;
    const double* __restrict row = rows + i * width;
    double* __restrict s = sums + p * width;
    for (std::size_t l = 0; l < width; ++l) {
      const double d = row[l] - shifts[l];
      s[l] += d;
      sum_sq[l] += d * d;
    }
  }
}

// One trace of the pair pass, as two loops over independent outputs: the
// level axis, then the pair axis. Restrict-qualified parameters (restrict
// on locals does not reach the vectorizer's alias analysis, in particular
// for the dx gathers) let both vectorize.
template <int kTier>
inline void centre_row(const double* __restrict row,
                       const double* __restrict shifts,
                       const double* __restrict centre, std::size_t width,
                       double* __restrict dx, double* __restrict bin,
                       double* __restrict sum_sq) {
  for (std::size_t l = 0; l < width; ++l) {
    const double v = (row[l] - shifts[l]) - centre[l];
    dx[l] = v;
    bin[l] += v;
    sum_sq[l] += v * v;
  }
}

template <int kTier>
inline void accumulate_pairs(const double* __restrict dx,
                             const std::uint32_t* __restrict pair_first,
                             const std::uint32_t* __restrict pair_second,
                             std::size_t num_pairs, double* __restrict bin,
                             double* __restrict m3_iij,
                             double* __restrict m3_ijj,
                             double* __restrict m4) {
  for (std::size_t q = 0; q < num_pairs; ++q) {
    const double di = dx[pair_first[q]];
    const double dj = dx[pair_second[q]];
    const double prod = di * dj;
    bin[q] += prod;
    m3_iij[q] += di * prod;
    m3_ijj[q] += prod * dj;
    m4[q] += prod * prod;
  }
}

template <int kTier>
void block_histogram_pairs(const std::uint8_t* pts, const double* rows,
                           std::size_t count, std::size_t width,
                           const double* shifts, const double* centre,
                           const std::uint32_t* pair_first,
                           const std::uint32_t* pair_second,
                           std::size_t num_pairs, double* dx, double* bins,
                           double* sum_sq, double* m3_iij, double* m3_ijj,
                           double* m4) {
  const std::size_t bin_width = width + num_pairs;
  for (std::size_t j = 0; j < kBlockPts * bin_width; ++j) bins[j] = 0.0;
  for (std::size_t l = 0; l < width; ++l) sum_sq[l] = 0.0;
  for (std::size_t q = 0; q < num_pairs; ++q) {
    m3_iij[q] = 0.0;
    m3_ijj[q] = 0.0;
    m4[q] = 0.0;
  }
  for (std::size_t i = 0; i < count; ++i) {
    double* b = bins + pts[i] * bin_width;
    centre_row<kTier>(rows + i * width, shifts, centre, width, dx, b,
                      sum_sq);
    accumulate_pairs<kTier>(dx, pair_first, pair_second, num_pairs,
                            b + width, m3_iij, m3_ijj, m4);
  }
}

template <int kTier>
void block_contract_counts(const double* pred, const std::uint64_t* counts,
                           std::size_t num_pts, std::size_t num_guesses,
                           double* sum_h, double* sum_h2) {
  for (std::size_t g = 0; g < num_guesses; ++g) {
    sum_h[g] = 0.0;
    sum_h2[g] = 0.0;
  }
  for (std::size_t p = 0; p < num_pts; ++p) {
    if (counts[p] == 0) continue;
    const double np = static_cast<double>(counts[p]);
    const double* __restrict h = pred + p * num_guesses;
    double* __restrict s1 = sum_h;
    double* __restrict s2 = sum_h2;
    for (std::size_t g = 0; g < num_guesses; ++g) {
      const double w = np * h[g];
      s1[g] += w;
      s2[g] += w * h[g];
    }
  }
}

template <int kTier>
void block_contract_sums(const double* pred, const double* sums,
                         const std::uint64_t* counts, std::size_t num_pts,
                         std::size_t width, std::size_t num_guesses,
                         double* r) {
  for (std::size_t j = 0; j < width * num_guesses; ++j) r[j] = 0.0;
  for (std::size_t p = 0; p < num_pts; ++p) {
    if (counts[p] == 0) continue;
    const double* __restrict h = pred + p * num_guesses;
    const double* __restrict sp = sums + p * width;
    for (std::size_t l = 0; l < width; ++l) {
      const double s = sp[l];
      double* __restrict rl = r + l * num_guesses;
      for (std::size_t g = 0; g < num_guesses; ++g) {
        rl[g] += s * h[g];
      }
    }
  }
}

template <int kTier>
void block_contract_dom(const std::uint8_t* pred_bit,
                        const std::uint64_t* counts, const double* sums,
                        std::size_t num_pts, std::size_t num_guesses,
                        double* sum0, double* sum1, std::uint64_t* cnt0,
                        std::uint64_t* cnt1) {
  for (std::size_t g = 0; g < num_guesses; ++g) {
    sum0[g] = 0.0;
    sum1[g] = 0.0;
    cnt0[g] = 0;
    cnt1[g] = 0;
  }
  for (std::size_t p = 0; p < num_pts; ++p) {
    if (counts[p] == 0) continue;
    const std::uint64_t np = counts[p];
    const double sp = sums[p];
    const std::uint8_t* __restrict b = pred_bit + p * num_guesses;
    double* __restrict s0 = sum0;
    double* __restrict s1 = sum1;
    std::uint64_t* __restrict c0 = cnt0;
    std::uint64_t* __restrict c1 = cnt1;
    for (std::size_t g = 0; g < num_guesses; ++g) {
      const std::uint64_t bit = b[g];
      const double w = static_cast<double>(bit);
      s1[g] += w * sp;
      s0[g] += (1.0 - w) * sp;
      c1[g] += bit * np;
      c0[g] += (1 - bit) * np;
    }
  }
}

/// Instantiates the block-statistics kernels for one dispatch tier.
#define SABLE_INSTANTIATE_BLOCK_STATS(TIER)                                   \
  template void block_histogram_scalar<TIER>(                                 \
      const std::uint8_t*, const double*, std::size_t, double,                \
      std::uint64_t*, double*, double*);                                      \
  template void block_histogram_sampled<TIER>(                                \
      const std::uint8_t*, const double*, std::size_t, std::size_t,           \
      const double*, std::uint64_t*, double*, double*);                       \
  template void block_histogram_pairs<TIER>(                                  \
      const std::uint8_t*, const double*, std::size_t, std::size_t,           \
      const double*, const double*, const std::uint32_t*,                     \
      const std::uint32_t*, std::size_t, double*, double*, double*, double*,  \
      double*, double*);                                                      \
  template void block_contract_counts<TIER>(                                  \
      const double*, const std::uint64_t*, std::size_t, std::size_t,          \
      double*, double*);                                                      \
  template void block_contract_sums<TIER>(                                    \
      const double*, const double*, const std::uint64_t*, std::size_t,        \
      std::size_t, std::size_t, double*);                                     \
  template void block_contract_dom<TIER>(                                     \
      const std::uint8_t*, const std::uint64_t*, const double*, std::size_t,  \
      std::size_t, double*, double*, std::uint64_t*, std::uint64_t*);

}  // namespace detail

}  // namespace sable
