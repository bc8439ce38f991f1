// Definitions of the block-statistics kernel templates declared in
// dpa/block_stats.hpp. Included by exactly the TUs that instantiate
// them: dpa/block_stats.cpp for the portable tier and the per-ISA TUs
// under src/simd/ (inside their #pragma GCC target regions) for the
// AVX2/AVX-512 tiers — the tier template parameter mints a distinct
// symbol per ISA and, for the sampled passes, picks the native vector
// size their eight-lane level blocks are split into (NativeLanes); the
// other bodies are identical and rely on autovectorization under the
// including TU's target.
//
// Determinism rules every body obeys (see block_stats.hpp):
//  - floating-point reductions (sum_sq, the m3/m4 chains and the
//    histogram scatter) accumulate sequentially in trace order — GCC
//    never reorders FP reductions without -fassociative-math; the
//    sampled passes keep one such chain per vector lane, so each
//    output's chain is the same at every tier;
//  - contraction loops keep the plaintext loop outermost and vectorize
//    only across independent output elements (guess/level axis), so each
//    output's addition chain is the same at every vector width;
//  - plain mul+add only, no std::fma (the build pins -ffp-contract=off;
//    FMA at some tiers but not others would break cross-tier
//    bit-identity).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

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

// ---- eight-lane level blocks (the sampled passes) ------------------------

// One level block, kLevelBlock doubles, as the widest native vectors a
// tier has: one AVX-512 register, two AVX2 ones, four SSE2 ones. Lane
// arithmetic is plain IEEE mul/add per lane at every tier, so a lane's
// chain is the same whichever way the block is split into registers.
// Parameters go by reference and every operation is always_inline (as
// the lane-word helpers in util/lane_word.hpp are), so no wide vector
// ever crosses a call boundary.
template <int kTier>
struct NativeLanes {  // portable: SSE2, part of the x86-64 baseline
  typedef double V __attribute__((vector_size(16)));
  typedef std::int64_t M __attribute__((vector_size(16)));
};
template <>
struct NativeLanes<1> {
  typedef double V __attribute__((vector_size(32)));
  typedef std::int64_t M __attribute__((vector_size(32)));
};
template <>
struct NativeLanes<2> {
  typedef double V __attribute__((vector_size(64)));
  typedef std::int64_t M __attribute__((vector_size(64)));
};

template <int kTier>
struct Lanes8 {
  using V = typename NativeLanes<kTier>::V;
  using M = typename NativeLanes<kTier>::M;
  static constexpr int kN = sizeof(V) / sizeof(double);
  static constexpr int kParts = static_cast<int>(kLevelBlock) / kN;
  V part[kParts];

  SABLE_LANE_INLINE static Lanes8 zero() { return Lanes8{}; }

  SABLE_LANE_INLINE static Lanes8 load(const double* p) {
    Lanes8 r;
    for (int h = 0; h < kParts; ++h) {
      std::memcpy(&r.part[h], p + h * kN, sizeof(V));
    }
    return r;
  }

  /// Lanes [0, n) from p (n <= 8), the rest +0.0; reads n doubles only.
  SABLE_LANE_INLINE static Lanes8 load_first(const double* p, std::size_t n) {
    double lanes[kLevelBlock] = {};
    for (std::size_t l = 0; l < n; ++l) lanes[l] = p[l];
    return load(lanes);
  }

  SABLE_LANE_INLINE static Lanes8 splat(double x) {
    const V first = {x};  // lane 0, shuffled to every lane
    Lanes8 r;
    for (int h = 0; h < kParts; ++h) r.part[h] = __builtin_shuffle(first, M{});
    return r;
  }

  SABLE_LANE_INLINE void store(double* p) const {
    for (int h = 0; h < kParts; ++h) {
      std::memcpy(p + h * kN, &part[h], sizeof(V));
    }
  }

  SABLE_LANE_INLINE friend Lanes8 operator+(const Lanes8& a, const Lanes8& b) {
    Lanes8 r;
    for (int h = 0; h < kParts; ++h) r.part[h] = a.part[h] + b.part[h];
    return r;
  }
  SABLE_LANE_INLINE friend Lanes8 operator-(const Lanes8& a, const Lanes8& b) {
    Lanes8 r;
    for (int h = 0; h < kParts; ++h) r.part[h] = a.part[h] - b.part[h];
    return r;
  }
  SABLE_LANE_INLINE friend Lanes8 operator*(const Lanes8& a, const Lanes8& b) {
    Lanes8 r;
    for (int h = 0; h < kParts; ++h) r.part[h] = a.part[h] * b.part[h];
    return r;
  }

  /// Lane k of the result is lane kSrc[k] of this block. Every output
  /// register draws its kN lanes from at most two input registers, so
  /// each is one two-operand shuffle with a constant mask.
  template <std::array<int, kLevelBlock> kSrc>
  SABLE_LANE_INLINE Lanes8 permute() const {
    return permute_parts<kSrc>(std::make_index_sequence<kParts>{});
  }

 private:
  // The input registers output register h draws from: the first lane's,
  // and another one when some lane lies outside it.
  template <std::array<int, kLevelBlock> kSrc, int h>
  static constexpr std::array<int, 2> source_parts() {
    const int a = kSrc[h * kN] / kN;
    for (int k = 0; k < kN; ++k) {
      if (kSrc[h * kN + k] / kN != a) return {a, kSrc[h * kN + k] / kN};
    }
    return {a, a};
  }

  template <std::array<int, kLevelBlock> kSrc, int h, std::size_t... k>
  SABLE_LANE_INLINE V permute_part(std::index_sequence<k...>) const {
    constexpr std::array<int, 2> from = source_parts<kSrc, h>();
    constexpr M mask = {(kSrc[h * kN + k] / kN == from[0] ? 0 : kN) +
                        kSrc[h * kN + k] % kN...};
    return __builtin_shuffle(part[from[0]], part[from[1]], mask);
  }

  template <std::array<int, kLevelBlock> kSrc, std::size_t... h>
  SABLE_LANE_INLINE Lanes8 permute_parts(std::index_sequence<h...>) const {
    Lanes8 r;
    ((r.part[h] = permute_part<kSrc, static_cast<int>(h)>(
          std::make_index_sequence<kN>{})),
     ...);
    return r;
  }
};

// The 28 pairs i < j of one level block in colexicographic order (by j,
// then i), four chunks of eight: the first r(r−1)/2 are exactly the
// pairs among the first r levels, so a block of r valid levels runs the
// first ceil(r(r−1)/2 / 8) chunks. The last four lanes are padding.
struct DiagonalPairs {
  std::array<std::array<int, kLevelBlock>, 4> first{};
  std::array<std::array<int, kLevelBlock>, 4> second{};
};

constexpr DiagonalPairs make_diagonal_pairs() {
  DiagonalPairs d;
  std::size_t index = 0;
  for (int j = 1; j < static_cast<int>(kLevelBlock); ++j) {
    for (int i = 0; i < j; ++i, ++index) {
      d.first[index / kLevelBlock][index % kLevelBlock] = i;
      d.second[index / kLevelBlock][index % kLevelBlock] = j;
    }
  }
  return d;
}

inline constexpr DiagonalPairs kDiagonalPairs = make_diagonal_pairs();

// Reads lanes [8b, 8b+8) of row i without reading past the caller's
// count·width doubles: a whole-vector load while it stays inside them
// (every trace but the last few), else a short copy with zero padding.
// A whole-vector load of the last block carries the next row's first
// samples in its padding lanes; no output ever reads a padding lane.
template <int kTier>
struct LevelBlockReader {
  using L8 = Lanes8<kTier>;
  const double* rows;
  std::size_t width;
  std::size_t first;  // b * kLevelBlock
  std::size_t valid;  // block_levels(width, b)
  std::size_t whole;  // rows [0, whole) load as whole vectors

  LevelBlockReader(const double* rows_, std::size_t count, std::size_t width_,
                   std::size_t b)
      : rows(rows_),
        width(width_),
        first(b * kLevelBlock),
        valid(block_levels(width_, b)),
        whole(count * width_ >= first + kLevelBlock
                  ? std::min(count, (count * width_ - first - kLevelBlock) /
                                            width_ + 1)
                  : 0) {}

  L8 operator()(std::size_t i) const {
    const double* p = rows + i * width + first;
    return i < whole ? L8::load(p) : L8::load_first(p, valid);
  }
};

template <int kTier>
void block_histogram_sampled(const std::uint8_t* pts, const double* rows,
                             std::size_t count, std::size_t width,
                             const double* shifts, std::uint64_t* counts,
                             double* sums, double* sum_sq, double* work) {
  using L8 = Lanes8<kTier>;
  const std::size_t blocks = level_blocks(width);
  const std::size_t stride = blocks * kLevelBlock;
  double* level_sq = align_work(work);  // [stride]
  double* bins = level_sq + stride;      // [kBlockPts * stride]
  for (std::size_t p = 0; p < kBlockPts; ++p) counts[p] = 0;
  std::size_t used = 0;  // slots [0, used) may be non-empty
  for (std::size_t i = 0; i < count; ++i) {
    counts[pts[i]] += 1;
    used = std::max<std::size_t>(used, pts[i] + std::size_t{1});
  }
  std::fill_n(bins, used * stride, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const LevelBlockReader<kTier> row(rows, count, width, b);
    const L8 shift = L8::load_first(shifts + row.first, row.valid);
    L8 sq = L8::zero();
    for (std::size_t i = 0; i < count; ++i) {
      const L8 d = row(i) - shift;
      double* bin = bins + pts[i] * stride + row.first;
      (L8::load(bin) + d).store(bin);
      sq = sq + d * d;
    }
    sq.store(level_sq + row.first);
  }
  for (std::size_t l = 0; l < width; ++l) sum_sq[l] = level_sq[l];
  for (std::size_t p = 0; p < used; ++p) {
    for (std::size_t l = 0; l < width; ++l) {
      sums[p * width + l] = bins[p * stride + l];
    }
  }
  std::fill(sums + used * width, sums + kBlockPts * width, 0.0);
}

// One trace of pair chunk kChunk: operands(x, chunk) yields the chunk's
// (d_i, d_j) lanes from the centred tile row x; the centred product
// goes to the chunk's slice of the slot's bin row and into the chunk's
// m3/m4 accumulators.
template <int kTier, std::size_t kChunk, class Operands>
SABLE_LANE_INLINE void pair_chunk_step(const double* x, double* bin,
                                       const Operands& operands,
                                       Lanes8<kTier>* m3_iij,
                                       Lanes8<kTier>* m3_ijj,
                                       Lanes8<kTier>* m4) {
  using L8 = Lanes8<kTier>;
  L8 di, dj;
  operands(x, std::integral_constant<std::size_t, kChunk>{}, di, dj);
  const L8 prod = di * dj;
  double* b = bin + kLevelBlock * kChunk;
  (L8::load(b) + prod).store(b);
  m3_iij[kChunk] = m3_iij[kChunk] + di * prod;
  m3_ijj[kChunk] = m3_ijj[kChunk] + prod * dj;
  m4[kChunk] = m4[kChunk] + prod * prod;
}

// One group of pair chunks over a centred tile, kChunk... indexing the
// group's chunks: the chunk accumulators (m3_iij, m3_ijj, m4 per chunk,
// at acc + 3·8·k) are loaded once, updated for every trace of the tile
// in order, and stored once. bins + 8·k is chunk k's slice of a slot's
// bin row.
template <int kTier, class Operands, std::size_t... kChunk>
inline void pair_group(const double* tile, std::size_t stride,
                       std::size_t n, const std::uint8_t* pts, double* bins,
                       std::size_t bin_stride, double* acc,
                       const Operands& operands,
                       std::index_sequence<kChunk...>) {
  using L8 = Lanes8<kTier>;
  constexpr std::size_t kLanes = kLevelBlock;
  L8 m3_iij[] = {L8::load(acc + 3 * kLanes * kChunk)...};
  L8 m3_ijj[] = {L8::load(acc + 3 * kLanes * kChunk + kLanes)...};
  L8 m4[] = {L8::load(acc + 3 * kLanes * kChunk + 2 * kLanes)...};
  for (std::size_t t = 0; t < n; ++t) {
    double* bin = bins + pts[t] * bin_stride;
    (pair_chunk_step<kTier, kChunk>(tile + t * stride, bin, operands, m3_iij,
                                    m3_ijj, m4),
     ...);
  }
  ((m3_iij[kChunk].store(acc + 3 * kLanes * kChunk),
    m3_ijj[kChunk].store(acc + 3 * kLanes * kChunk + kLanes),
    m4[kChunk].store(acc + 3 * kLanes * kChunk + 2 * kLanes)),
   ...);
}

// Runs fn(std::make_index_sequence<n>{}) for a run-time n in [1, 4]: at
// most four chunks share a trace loop, which keeps their twelve
// accumulators in registers.
inline constexpr std::size_t kMaxGroupChunks = 4;

template <class Fn>
inline void with_chunk_count(std::size_t n, const Fn& fn) {
  switch (n) {
    case 1: fn(std::make_index_sequence<1>{}); break;
    case 2: fn(std::make_index_sequence<2>{}); break;
    case 3: fn(std::make_index_sequence<3>{}); break;
    default: fn(std::make_index_sequence<4>{}); break;
  }
}

// Calls fn(chunk, lane, i, j) for every valid lane of the pair pass, in
// the pass's chunk order: per level block bi, its diagonal chunks, then
// one chunk per level of each later block (lane m pairs level m of bi
// with that level).
template <class Fn>
void for_each_pair_lane(std::size_t width, const Fn& fn) {
  std::size_t chunk = 0;
  for (std::size_t bi = 0; bi < level_blocks(width); ++bi) {
    const std::size_t base = bi * kLevelBlock;
    const std::size_t r = block_levels(width, bi);
    const std::size_t pairs = r * (r - 1) / 2;
    for (std::size_t index = 0; index < pairs; ++index) {
      const std::size_t k = index / kLevelBlock, m = index % kLevelBlock;
      fn(chunk + k, m, base + kDiagonalPairs.first[k][m],
         base + kDiagonalPairs.second[k][m]);
    }
    chunk += (pairs + kLevelBlock - 1) / kLevelBlock;
    for (std::size_t j = base + kLevelBlock; j < width; ++j, ++chunk) {
      for (std::size_t m = 0; m < kLevelBlock; ++m) {
        fn(chunk, m, base + m, j);
      }
    }
  }
}

template <int kTier>
void block_histogram_pairs(const std::uint8_t* pts, const double* rows,
                           std::size_t count, std::size_t width,
                           const double* shifts, const double* centre,
                           double* bins, double* sum_sq, double* m3_iij,
                           double* m3_ijj, double* m4, double* work) {
  using L8 = Lanes8<kTier>;
  constexpr std::size_t kLanes = kLevelBlock;
  const std::size_t blocks = level_blocks(width);
  const std::size_t stride = blocks * kLanes;
  const std::size_t pair_lanes = pair_chunks(width) * kLanes;
  // The pass's own bin rows: the level sums at a padded stride, then the
  // pair sums in chunk order.
  const std::size_t bin_stride = stride + pair_lanes;
  const std::size_t num_pairs = width * (width - 1) / 2;
  double* tile = align_work(work);                       // [kTile * stride]
  double* chunk_bins = tile + kTileTraces * stride;     // [kBlockPts * bin_stride]
  double* offsets = chunk_bins + kBlockPts * bin_stride;  // [2 * stride]
  double* level_sq = offsets + 2 * stride;                // [stride]
  double* acc = level_sq + stride;                        // [3 * pair_lanes]

  std::size_t used = 0;  // slots [0, used) may be non-empty
  for (std::size_t i = 0; i < count; ++i) {
    used = std::max<std::size_t>(used, pts[i] + std::size_t{1});
  }
  std::fill_n(chunk_bins, used * bin_stride, 0.0);
  std::fill_n(level_sq, stride, 0.0);
  std::fill_n(acc, 3 * pair_lanes, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kLanes;
    L8::load_first(shifts + first, block_levels(width, b)).store(offsets + first);
    L8::load_first(centre + first, block_levels(width, b))
        .store(offsets + stride + first);
  }

  for (std::size_t t0 = 0; t0 < count; t0 += kTileTraces) {
    const std::size_t n = std::min(kTileTraces, count - t0);
    const std::uint8_t* tile_pts = pts + t0;
    // Centre the tile: dx = (x − shift) − centre per level block, with
    // the level bins and Σ dx² on the way.
    for (std::size_t b = 0; b < blocks; ++b) {
      const LevelBlockReader<kTier> row(rows, count, width, b);
      const L8 shift = L8::load(offsets + row.first);
      const L8 mid = L8::load(offsets + stride + row.first);
      L8 sq = L8::load(level_sq + row.first);
      for (std::size_t t = 0; t < n; ++t) {
        const L8 dx = (row(t0 + t) - shift) - mid;
        dx.store(tile + t * stride + row.first);
        double* bin = chunk_bins + tile_pts[t] * bin_stride + row.first;
        (L8::load(bin) + dx).store(bin);
        sq = sq + dx * dx;
      }
      sq.store(level_sq + row.first);
    }
    // The pair chunks, group by group, in for_each_pair_lane's order.
    std::size_t chunk = 0;
    auto run = [&](std::size_t chunks, const auto& operands) {
      for (std::size_t k0 = 0; k0 < chunks; k0 += kMaxGroupChunks) {
        with_chunk_count(std::min(kMaxGroupChunks, chunks - k0), [&](auto seq) {
          pair_group<kTier>(
              tile, stride, n, tile_pts,
              chunk_bins + stride + (chunk + k0) * kLanes, bin_stride,
              acc + 3 * kLanes * (chunk + k0),
              [&](const double* x, auto k, L8& di, L8& dj) {
                operands(x, k0, k, di, dj);
              },
              seq);
        });
      }
      chunk += chunks;
    };
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      const std::size_t base = bi * kLanes;
      const std::size_t r = block_levels(width, bi);
      // Diagonal: both levels in block bi, two permutes per chunk (at
      // most four chunks, so k0 is 0).
      run((r * (r - 1) / 2 + kLanes - 1) / kLanes,
          [&](const double* x, std::size_t, auto k, L8& di, L8& dj) {
            const L8 v = L8::load(x + base);
            di = v.template permute<kDiagonalPairs.first[k]>();
            dj = v.template permute<kDiagonalPairs.second[k]>();
          });
      // Cross: level m of bi against level j of a later block, one chunk
      // per j: d_i is the block itself, d_j a broadcast.
      run(width - base - r,
          [&](const double* x, std::size_t k0, auto k, L8& di, L8& dj) {
            di = L8::load(x + base);
            dj = L8::splat(x[base + kLanes + k0 + k]);
          });
    }
  }

  // Back to the caller's layout: level sums and Σ dx² first, then every
  // pair lane to its lexicographic index.
  const std::size_t out_width = width + num_pairs;
  for (std::size_t l = 0; l < width; ++l) sum_sq[l] = level_sq[l];
  for (std::size_t p = 0; p < used; ++p) {
    for (std::size_t l = 0; l < width; ++l) {
      bins[p * out_width + l] = chunk_bins[p * bin_stride + l];
    }
  }
  std::fill(bins + used * out_width, bins + kBlockPts * out_width, 0.0);
  for_each_pair_lane(width, [&](std::size_t c, std::size_t m, std::size_t i,
                                std::size_t j) {
    const std::size_t q = i * width - i * (i + 1) / 2 + (j - i - 1);
    const std::size_t lane = c * kLanes + m;
    const double* chunk_acc = acc + 3 * kLanes * c;
    m3_iij[q] = chunk_acc[m];
    m3_ijj[q] = chunk_acc[kLanes + m];
    m4[q] = chunk_acc[2 * kLanes + m];
    for (std::size_t p = 0; p < used; ++p) {
      bins[p * out_width + width + q] =
          chunk_bins[p * bin_stride + stride + lane];
    }
  });
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
      const double*, std::uint64_t*, double*, double*, double*);              \
  template void block_histogram_pairs<TIER>(                                  \
      const std::uint8_t*, const double*, std::size_t, std::size_t,           \
      const double*, const double*, double*, double*, double*, double*,       \
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
