#include "dpa/second_order.hpp"

#include <algorithm>
#include <cmath>

#include "dpa/block_stats.hpp"
#include "io/serial.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

constexpr std::uint32_t kSecondOrderTag = 0x53AB1004;

// Pair p enumerates i < j lexicographically: (0,1), (0,2), …, (1,2), ….
// The loops below iterate pairs in this order with a running index.
std::size_t pair_count(std::size_t width) {
  return width * (width - 1) / 2;
}

}  // namespace

StreamingSecondOrderCpa::StreamingSecondOrderCpa(const SboxSpec& spec,
                                                 PowerModel model,
                                                 std::size_t bit)
    : num_guesses_(std::size_t{1} << spec.in_bits),
      num_plaintexts_(num_guesses_),
      model_(model),
      bit_(bit),
      predictions_(shared_prediction_table(spec, model, bit)) {}

void StreamingSecondOrderCpa::require_width(std::size_t width) const {
  if (width_ != 0) {
    SABLE_REQUIRE(width == width_,
                  "second-order CPA blocks must keep the row width of the "
                  "first block");
    return;
  }
  SABLE_REQUIRE(width >= 2,
                "second-order CPA needs at least two sample columns to "
                "form a centered product");
}

void StreamingSecondOrderCpa::ensure_width(std::size_t width) {
  require_width(width);
  if (width_ != 0) return;
  width_ = width;
  num_pairs_ = pair_count(width);
  sums_.mean_x.assign(width_, 0.0);
  sums_.mean_h.assign(num_guesses_, 0.0);
  sums_.m2_h.assign(num_guesses_, 0.0);
  sums_.c2.assign(width_ * width_, 0.0);
  sums_.c_xh.assign(width_ * num_guesses_, 0.0);
  sums_.m3_iij.assign(num_pairs_, 0.0);
  sums_.m3_ijj.assign(num_pairs_, 0.0);
  sums_.m4.assign(num_pairs_, 0.0);
  sums_.m3_ijh.assign(num_pairs_ * num_guesses_, 0.0);
}

StreamingSecondOrderCpa::SumsView StreamingSecondOrderCpa::view(
    const Sums& s) {
  return SumsView{s.n,           s.mean_x.data(), s.mean_h.data(),
                  s.m2_h.data(), s.c2.data(),     s.c_xh.data(),
                  s.m3_iij.data(), s.m3_ijj.data(), s.m4.data(),
                  s.m3_ijh.data()};
}

StreamingSecondOrderCpa::SumsView StreamingSecondOrderCpa::block_sums(
    const SampledHistogram& histogram, const std::uint8_t* pts,
    const double* rows) const {
  const std::size_t count = histogram.count;
  const std::size_t L = histogram.width;
  const std::size_t Q = pair_count(L);
  const std::size_t W = L + Q;  // bin row: L level sums, then Q pair sums
  const std::size_t G = num_guesses_;
  const std::size_t P = num_plaintexts_;
  const BlockStatKernels& kernels = block_stat_kernels(active_tier());
  detail::BlockScratch& s = detail::block_scratch(L, G);
  s.r.resize(W * G);
  s.centre.resize(L);
  s.sum_sq.resize(L);
  s.bins.resize(detail::kBlockPts * W);
  s.pred_centred.resize(P * G);
  s.c2.resize(L * L);
  s.m3_iij.resize(Q);
  s.m3_ijj.resize(Q);
  s.m4.resize(Q);
  if (s.work.size() < detail::pairs_work_size(L)) {
    s.work.resize(detail::pairs_work_size(L));
  }

  // Pass 1 (the histogram): plaintext counts, validated before anything
  // else happens, and the block means, shifted by the block's first row.
  detail::require_block_pts(histogram.counts.data(), P);
  detail::require_finite_block(histogram.sum_sq.data(), L);
  const double n = static_cast<double>(count);
  for (std::size_t l = 0; l < L; ++l) {
    double t_sum = 0.0;
    for (std::size_t p = 0; p < P; ++p) t_sum += histogram.sums[p * L + l];
    s.centre[l] = t_sum / n;
    s.col_mean[l] = histogram.shifts[l] + s.centre[l];
  }

  // The prediction moments reduce to the histogram. The count GEMV gives
  // the per-guess means; its raw Σ n·h² is dropped, and m2_h is taken
  // two-pass instead, as the count-weighted square of the block-centred
  // table the pair bins contract against below. Rows of absent
  // plaintexts stay unset; the contraction skips them too.
  const std::uint64_t* counts = histogram.counts.data();
  const double* pred = predictions_->data();
  double* mean_h = s.sum_h.data();
  double* m2_h = s.sum_h2.data();
  kernels.contract_counts(pred, counts, P, G, mean_h, m2_h);
  for (std::size_t g = 0; g < G; ++g) {
    mean_h[g] /= n;
    m2_h[g] = 0.0;
  }
  for (std::size_t p = 0; p < P; ++p) {
    if (counts[p] == 0) continue;
    const double w = static_cast<double>(counts[p]);
    const double* h = pred + p * G;
    double* hc = s.pred_centred.data() + p * G;
    for (std::size_t g = 0; g < G; ++g) {
      const double dh = h[g] - mean_h[g];
      hc[g] = dh;
      m2_h[g] += w * dh * dh;
    }
  }

  // Pass 2: the centred products, binned per plaintext, plus the
  // guess-free moment chains.
  kernels.histogram_pairs(pts, rows, count, L, histogram.shifts.data(),
                          s.centre.data(), s.bins.data(), s.sum_sq.data(),
                          s.m3_iij.data(), s.m3_ijj.data(), s.m4.data(),
                          s.work.data());

  // One GEMM over both bin groups: rows 0..L-1 of r are c_xh, rows
  // L..L+Q-1 are m3_ijh.
  kernels.contract_sums(s.pred_centred.data(), s.bins.data(), counts, P, W,
                        G, s.r.data());
  std::size_t q = 0;
  for (std::size_t i = 0; i < L; ++i) {
    s.c2[i * L + i] = s.sum_sq[i];
    for (std::size_t j = i + 1; j < L; ++j, ++q) {
      double c = 0.0;
      for (std::size_t p = 0; p < P; ++p) c += s.bins[p * W + L + q];
      s.c2[i * L + j] = c;
      s.c2[j * L + i] = c;
    }
  }
  return SumsView{count,       s.col_mean.data(), mean_h,
                  m2_h,        s.c2.data(),       s.r.data(),
                  s.m3_iij.data(), s.m3_ijj.data(), s.m4.data(),
                  s.r.data() + L * G};
}

void StreamingSecondOrderCpa::combine(const SumsView& b) {
  if (b.n == 0) return;
  Sums& a = sums_;
  const std::size_t L = width_;
  const std::size_t G = num_guesses_;
  const std::size_t Q = num_pairs_;
  if (a.n == 0) {
    a.n = b.n;
    std::copy_n(b.mean_x, L, a.mean_x.begin());
    std::copy_n(b.mean_h, G, a.mean_h.begin());
    std::copy_n(b.m2_h, G, a.m2_h.begin());
    std::copy_n(b.c2, L * L, a.c2.begin());
    std::copy_n(b.c_xh, L * G, a.c_xh.begin());
    std::copy_n(b.m3_iij, Q, a.m3_iij.begin());
    std::copy_n(b.m3_ijj, Q, a.m3_ijj.begin());
    std::copy_n(b.m4, Q, a.m4.begin());
    std::copy_n(b.m3_ijh, Q * G, a.m3_ijh.begin());
    return;
  }
  const double na = static_cast<double>(a.n);
  const double nb = static_cast<double>(b.n);
  const double n = na + nb;

  // Deviations of each part's mean from the combined mean: for column i,
  // a_i = μ_Ai − μ, b_i = μ_Bi − μ. Every formula below is the exact
  // expansion of the combined central sum Σ (d + shift)·… with the
  // part-local zero-sum terms dropped.
  std::vector<double>& fold = detail::block_scratch().fold;
  fold.resize(2 * (L + G));
  double* ax = fold.data();
  double* bx = ax + L;
  double* ah = bx + L;
  double* bh = ah + G;
  for (std::size_t i = 0; i < L; ++i) {
    const double d = b.mean_x[i] - a.mean_x[i];
    ax[i] = -d * nb / n;
    bx[i] = d * na / n;
  }
  for (std::size_t g = 0; g < G; ++g) {
    const double d = b.mean_h[g] - a.mean_h[g];
    ah[g] = -d * nb / n;
    bh[g] = d * na / n;
  }

  // Highest order first: each update reads only pre-merge lower-order
  // sums, which are still untouched further down.
  std::size_t p = 0;
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = i + 1; j < L; ++j, ++p) {
      const double acii = a.c2[i * L + i], acjj = a.c2[j * L + j];
      const double acij = a.c2[i * L + j];
      const double bcii = b.c2[i * L + i], bcjj = b.c2[j * L + j];
      const double bcij = b.c2[i * L + j];
      a.m4[p] += b.m4[p]
          + 2.0 * ax[j] * a.m3_iij[p] + 2.0 * ax[i] * a.m3_ijj[p]
          + ax[j] * ax[j] * acii + ax[i] * ax[i] * acjj
          + 4.0 * ax[i] * ax[j] * acij
          + na * ax[i] * ax[i] * ax[j] * ax[j]
          + 2.0 * bx[j] * b.m3_iij[p] + 2.0 * bx[i] * b.m3_ijj[p]
          + bx[j] * bx[j] * bcii + bx[i] * bx[i] * bcjj
          + 4.0 * bx[i] * bx[j] * bcij
          + nb * bx[i] * bx[i] * bx[j] * bx[j];
      double* m3h = a.m3_ijh.data() + p * G;
      const double* om3h = b.m3_ijh + p * G;
      const double* acxi = a.c_xh.data() + i * G;
      const double* acxj = a.c_xh.data() + j * G;
      const double* bcxi = b.c_xh + i * G;
      const double* bcxj = b.c_xh + j * G;
      for (std::size_t g = 0; g < G; ++g) {
        m3h[g] += om3h[g]
            + ax[i] * acxj[g] + ax[j] * acxi[g] + ah[g] * acij
            + na * ax[i] * ax[j] * ah[g]
            + bx[i] * bcxj[g] + bx[j] * bcxi[g] + bh[g] * bcij
            + nb * bx[i] * bx[j] * bh[g];
      }
      a.m3_iij[p] += b.m3_iij[p]
          + 2.0 * ax[i] * acij + ax[j] * acii + na * ax[i] * ax[i] * ax[j]
          + 2.0 * bx[i] * bcij + bx[j] * bcii + nb * bx[i] * bx[i] * bx[j];
      a.m3_ijj[p] += b.m3_ijj[p]
          + 2.0 * ax[j] * acij + ax[i] * acjj + na * ax[i] * ax[j] * ax[j]
          + 2.0 * bx[j] * bcij + bx[i] * bcjj + nb * bx[i] * bx[j] * bx[j];
    }
  }
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = 0; j < L; ++j) {
      a.c2[i * L + j] += b.c2[i * L + j] + na * ax[i] * ax[j]
          + nb * bx[i] * bx[j];
    }
    double* cx = a.c_xh.data() + i * G;
    const double* ocx = b.c_xh + i * G;
    for (std::size_t g = 0; g < G; ++g) {
      cx[g] += ocx[g] + na * ax[i] * ah[g] + nb * bx[i] * bh[g];
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    a.m2_h[g] += b.m2_h[g] + na * ah[g] * ah[g] + nb * bh[g] * bh[g];
  }
  for (std::size_t i = 0; i < L; ++i) {
    a.mean_x[i] += (b.mean_x[i] - a.mean_x[i]) * nb / n;
  }
  for (std::size_t g = 0; g < G; ++g) {
    a.mean_h[g] += (b.mean_h[g] - a.mean_h[g]) * nb / n;
  }
  a.n += b.n;
}

void StreamingSecondOrderCpa::add_block(const std::uint8_t* pts,
                                        const double* rows, std::size_t count,
                                        std::size_t width) {
  if (count == 0) return;
  require_width(width);
  SampledHistogram& histogram = detail::block_scratch().sampled;
  histogram.compute(pts, rows, count, width);
  add_histogram(histogram, pts, rows);
}

void StreamingSecondOrderCpa::add_histogram(const SampledHistogram& histogram,
                                            const std::uint8_t* pts,
                                            const double* rows) {
  if (histogram.count == 0) return;
  require_width(histogram.width);
  const SumsView b = block_sums(histogram, pts, rows);
  ensure_width(histogram.width);
  combine(b);
}

void StreamingSecondOrderCpa::merge(const StreamingSecondOrderCpa& other) {
  SABLE_REQUIRE(num_guesses_ == other.num_guesses_ &&
                    model_ == other.model_ && bit_ == other.bit_,
                "merge requires identically configured second-order CPA "
                "accumulators");
  SABLE_REQUIRE(predictions_ == other.predictions_ ||
                    *predictions_ == *other.predictions_,
                "merge requires accumulators over the same S-box spec");
  if (other.width_ == 0) return;  // other never saw a block
  ensure_width(other.width_);
  combine(view(other.sums_));
}

void StreamingSecondOrderCpa::save(ByteWriter& writer) const {
  writer.u32(kSecondOrderTag);
  writer.u64(num_guesses_);
  writer.u32(static_cast<std::uint32_t>(model_));
  writer.u64(bit_);
  writer.u64(width_);
  if (width_ == 0) return;  // lazily sized; nothing accumulated yet
  writer.u64(sums_.n);
  writer.f64s(sums_.mean_x.data(), width_);
  writer.f64s(sums_.mean_h.data(), num_guesses_);
  writer.f64s(sums_.m2_h.data(), num_guesses_);
  writer.f64s(sums_.c2.data(), width_ * width_);
  writer.f64s(sums_.c_xh.data(), width_ * num_guesses_);
  writer.f64s(sums_.m3_iij.data(), num_pairs_);
  writer.f64s(sums_.m3_ijj.data(), num_pairs_);
  writer.f64s(sums_.m4.data(), num_pairs_);
  writer.f64s(sums_.m3_ijh.data(), num_pairs_ * num_guesses_);
}

void StreamingSecondOrderCpa::load(ByteReader& reader) {
  SABLE_REQUIRE(reader.u32() == kSecondOrderTag,
                "serialized state is not a second-order CPA accumulator");
  SABLE_REQUIRE(reader.u64() == num_guesses_ &&
                    reader.u32() == static_cast<std::uint32_t>(model_) &&
                    reader.u64() == bit_,
                "serialized second-order CPA state was produced by a "
                "differently configured accumulator (guess count, model or "
                "bit)");
  const std::uint64_t width = reader.u64();
  if (width == 0) {
    SABLE_REQUIRE(width_ == 0,
                  "cannot load an empty second-order state into an "
                  "accumulator whose width is already fixed");
    return;
  }
  // A corrupt width field must not drive the O(width^2) allocations in
  // ensure_width: the c2 matrix alone needs width^2 doubles from the
  // stream, so bound the claim by the bytes actually remaining.
  SABLE_REQUIRE(width <= 0xFFFF &&
                    width * width <= reader.remaining() / sizeof(double),
                "serialized second-order width is implausibly large for "
                "the remaining file size");
  // The stored width must agree with a fixed width; a lazily unsized
  // accumulator adopts it (the same rule add_block applies to its first
  // block, including the >= 2 check inside ensure_width).
  ensure_width(static_cast<std::size_t>(width));
  sums_.n = reader.u64();
  reader.f64s(sums_.mean_x.data(), width_);
  reader.f64s(sums_.mean_h.data(), num_guesses_);
  reader.f64s(sums_.m2_h.data(), num_guesses_);
  reader.f64s(sums_.c2.data(), width_ * width_);
  reader.f64s(sums_.c_xh.data(), width_ * num_guesses_);
  reader.f64s(sums_.m3_iij.data(), num_pairs_);
  reader.f64s(sums_.m3_ijj.data(), num_pairs_);
  reader.f64s(sums_.m4.data(), num_pairs_);
  reader.f64s(sums_.m3_ijh.data(), num_pairs_ * num_guesses_);
}

SecondOrderAttackResult StreamingSecondOrderCpa::result() const {
  SABLE_REQUIRE(sums_.n >= 2,
                "second-order CPA requires at least two traces");
  const std::size_t L = width_;
  const std::size_t G = num_guesses_;
  const double n = static_cast<double>(sums_.n);
  SecondOrderAttackResult result;
  std::vector<double> combined(G, 0.0);
  double global_best = -1.0;
  std::size_t p = 0;
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = i + 1; j < L; ++j, ++p) {
      const double cij = sums_.c2[i * L + j];
      // n · Var of the centered product: M4_iijj − C_ij²/n. Rounding can
      // push a degenerate pair epsilon-negative, so guard, don't clamp.
      const double var_p = sums_.m4[p] - cij * cij / n;
      if (!(var_p > 0.0)) continue;
      const double* m3h = sums_.m3_ijh.data() + p * G;
      for (std::size_t g = 0; g < G; ++g) {
        if (!(sums_.m2_h[g] > 0.0)) continue;
        const double score =
            std::fabs(m3h[g]) / std::sqrt(var_p * sums_.m2_h[g]);
        if (score > combined[g]) combined[g] = score;
        if (score > global_best) {
          global_best = score;
          result.best_pair_first = i;
          result.best_pair_second = j;
        }
      }
    }
  }
  result.combined = make_attack_result(std::move(combined));
  return result;
}

}  // namespace sable
