// Naive reference distinguishers: the test oracle the streaming,
// block-factored and sharded attack paths are checked against.
//
// Every function here keeps all traces resident and recomputes from
// scratch in the textbook formulation — two-pass Pearson CPA per key
// guess, partition-mean DoM, per-column CPA, centered-product
// second-order CPA, and prefix MTD (re-attack each checkpoint's prefix) —
// sharing no code with the library's accumulators beyond the leakage
// prediction and the two-pass power/stats.hpp pearson().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "crypto/leakage.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/second_order.hpp"
#include "power/stats.hpp"
#include "power/trace.hpp"

namespace sable::reference {

/// |Pearson| per key guess between the samples and the predicted leakage.
inline std::vector<double> cpa_scores(const std::vector<std::uint8_t>& pts,
                                      const std::vector<double>& samples,
                                      const SboxSpec& spec, PowerModel model,
                                      std::size_t bit = 0) {
  const std::size_t num_guesses = std::size_t{1} << spec.in_bits;
  std::vector<double> scores(num_guesses);
  std::vector<double> prediction(pts.size());
  for (std::size_t g = 0; g < num_guesses; ++g) {
    for (std::size_t t = 0; t < pts.size(); ++t) {
      prediction[t] = predict_leakage(spec, model, pts[t],
                                      static_cast<std::uint8_t>(g), bit);
    }
    scores[g] = std::fabs(pearson(prediction, samples));
  }
  return scores;
}

inline std::vector<double> cpa_scores(const TraceSet& traces,
                                      const SboxSpec& spec, PowerModel model,
                                      std::size_t bit = 0) {
  return cpa_scores(traces.plaintexts, traces.samples, spec, model, bit);
}

/// |mean(partition 1) − mean(partition 0)| per key guess, partitioning on
/// the predicted S-box output bit; 0 when a partition is empty.
inline std::vector<double> dom_scores(const std::vector<std::uint8_t>& pts,
                                      const std::vector<double>& samples,
                                      const SboxSpec& spec, std::size_t bit) {
  const std::size_t num_guesses = std::size_t{1} << spec.in_bits;
  std::vector<double> scores(num_guesses, 0.0);
  for (std::size_t g = 0; g < num_guesses; ++g) {
    double sum[2] = {0.0, 0.0};
    std::size_t n[2] = {0, 0};
    for (std::size_t t = 0; t < pts.size(); ++t) {
      const double pred =
          predict_leakage(spec, PowerModel::kSboxOutputBit, pts[t],
                          static_cast<std::uint8_t>(g), bit);
      const int p = pred > 0.5 ? 1 : 0;
      sum[p] += samples[t];
      ++n[p];
    }
    if (n[0] == 0 || n[1] == 0) continue;
    scores[g] = std::fabs(sum[1] / static_cast<double>(n[1]) -
                          sum[0] / static_cast<double>(n[0]));
  }
  return scores;
}

inline std::vector<double> dom_scores(const TraceSet& traces,
                                      const SboxSpec& spec, std::size_t bit) {
  return dom_scores(traces.plaintexts, traces.samples, spec, bit);
}

/// Time-resolved CPA: two-pass CPA per sample column, then the largest
/// |ρ| over the columns per guess.
inline std::vector<double> multi_cpa_scores(const MultiTraceSet& traces,
                                            const SboxSpec& spec,
                                            PowerModel model,
                                            std::size_t bit = 0) {
  std::vector<double> combined(std::size_t{1} << spec.in_bits, 0.0);
  std::vector<double> column(traces.size());
  for (std::size_t s = 0; s < traces.width; ++s) {
    for (std::size_t t = 0; t < traces.size(); ++t) {
      column[t] = traces.at(t, s);
    }
    const std::vector<double> scores =
        cpa_scores(traces.plaintexts, column, spec, model, bit);
    for (std::size_t g = 0; g < combined.size(); ++g) {
      combined[g] = std::max(combined[g], scores[g]);
    }
  }
  return combined;
}

/// Second-order centered-product CPA: full-campaign column means, the
/// centered product per level pair, two-pass Pearson against the
/// predicted leakage, max-combined per guess; the best pair is where the
/// overall largest |ρ| (first on ties) occurred.
inline SecondOrderAttackResult second_order_cpa(const MultiTraceSet& traces,
                                                const SboxSpec& spec,
                                                PowerModel model,
                                                std::size_t bit = 0) {
  const std::size_t L = traces.width;
  const std::size_t n = traces.size();
  const std::size_t guesses = std::size_t{1} << spec.in_bits;
  std::vector<double> mu(L, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < L; ++i) mu[i] += traces.at(t, i);
  }
  for (double& m : mu) m /= static_cast<double>(n);

  std::vector<std::vector<double>> hyp(guesses, std::vector<double>(n));
  for (std::size_t g = 0; g < guesses; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      hyp[g][t] = predict_leakage(spec, model, traces.plaintexts[t],
                                  static_cast<std::uint8_t>(g), bit);
    }
  }

  SecondOrderAttackResult result;
  std::vector<double> combined(guesses, 0.0);
  double global_best = -1.0;
  std::vector<double> product(n);
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = i + 1; j < L; ++j) {
      for (std::size_t t = 0; t < n; ++t) {
        product[t] = (traces.at(t, i) - mu[i]) * (traces.at(t, j) - mu[j]);
      }
      for (std::size_t g = 0; g < guesses; ++g) {
        const double score = std::fabs(pearson(product, hyp[g]));
        combined[g] = std::max(combined[g], score);
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

/// The first `n` traces of a scalar trace set.
inline TraceSet prefix(const TraceSet& traces, std::size_t n) {
  TraceSet out;
  out.pt_width = traces.pt_width;
  out.plaintexts.assign(
      traces.plaintexts.begin(),
      traces.plaintexts.begin() +
          static_cast<std::ptrdiff_t>(n * traces.pt_width));
  out.samples.assign(traces.samples.begin(),
                     traces.samples.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

/// Prefix MTD: runs `attack` from scratch on the first n traces for every
/// checkpoint n in [2, traces.size()], in the given order.
inline MtdResult prefix_mtd(
    const TraceSet& traces, std::size_t correct_key,
    const std::vector<std::size_t>& checkpoints,
    const std::function<AttackResult(const TraceSet&)>& attack) {
  std::vector<std::pair<std::size_t, std::size_t>> history;
  for (std::size_t n : checkpoints) {
    if (n > traces.size() || n < 2) continue;
    history.emplace_back(n, attack(prefix(traces, n)).rank_of(correct_key));
  }
  return mtd_from_history(std::move(history));
}

/// Prefix MTD over the two-pass CPA oracle.
inline MtdResult cpa_prefix_mtd(const TraceSet& traces,
                                std::size_t correct_key,
                                const std::vector<std::size_t>& checkpoints,
                                const SboxSpec& spec, PowerModel model,
                                std::size_t bit = 0) {
  return prefix_mtd(traces, correct_key, checkpoints,
                    [&](const TraceSet& t) {
                      return make_attack_result(
                          cpa_scores(t, spec, model, bit));
                    });
}

// ---- per-trace histogram passes --------------------------------------------
//
// The straightforward per-trace loops the register-resident sampled
// kernels (dpa/block_stats_impl.hpp) replaced, kept as their reference:
// same outputs, same layout, same addition chain per output (sequential
// in trace order, plain mul + add), so the kernels must match them bit
// for bit at every dispatch tier.

/// Sampled-row histogram: counts[256], sums[p*width + l] of
/// (row[l] − shifts[l]), sum_sq[l] of its square.
inline void histogram_sampled(const std::uint8_t* pts, const double* rows,
                              std::size_t count, std::size_t width,
                              const double* shifts, std::uint64_t* counts,
                              double* sums, double* sum_sq) {
  std::fill_n(counts, 256, 0);
  std::fill_n(sums, 256 * width, 0.0);
  std::fill_n(sum_sq, width, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pts[i];
    counts[p] += 1;
    for (std::size_t l = 0; l < width; ++l) {
      const double d = rows[i * width + l] - shifts[l];
      sums[p * width + l] += d;
      sum_sq[l] += d * d;
    }
  }
}

/// Second-order pair pass: dx_l = (row[l] − shifts[l]) − centre[l];
/// bins[p*(width+Q) + l] of dx_l and bins[p*(width+Q) + width + q] of
/// dx_i·dx_j for the lexicographic pair q = (i, j), i < j; sum_sq, m3_iij,
/// m3_ijj and m4 as in dpa/block_stats.hpp.
inline void histogram_pairs(const std::uint8_t* pts, const double* rows,
                            std::size_t count, std::size_t width,
                            const double* shifts, const double* centre,
                            double* bins, double* sum_sq, double* m3_iij,
                            double* m3_ijj, double* m4) {
  std::vector<std::size_t> first, second;
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t j = i + 1; j < width; ++j) {
      first.push_back(i);
      second.push_back(j);
    }
  }
  const std::size_t num_pairs = first.size();
  const std::size_t bin_width = width + num_pairs;
  std::fill_n(bins, 256 * bin_width, 0.0);
  std::fill_n(sum_sq, width, 0.0);
  std::fill_n(m3_iij, num_pairs, 0.0);
  std::fill_n(m3_ijj, num_pairs, 0.0);
  std::fill_n(m4, num_pairs, 0.0);
  std::vector<double> dx(width);
  for (std::size_t i = 0; i < count; ++i) {
    double* bin = bins + pts[i] * bin_width;
    for (std::size_t l = 0; l < width; ++l) {
      dx[l] = (rows[i * width + l] - shifts[l]) - centre[l];
      bin[l] += dx[l];
      sum_sq[l] += dx[l] * dx[l];
    }
    for (std::size_t q = 0; q < num_pairs; ++q) {
      const double di = dx[first[q]];
      const double dj = dx[second[q]];
      const double prod = di * dj;
      bin[width + q] += prod;
      m3_iij[q] += di * prod;
      m3_ijj[q] += prod * dj;
      m4[q] += prod * prod;
    }
  }
}

}  // namespace sable::reference
