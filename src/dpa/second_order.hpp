// Second-order (centered-product) CPA over time-resolved traces.
//
// First-order CPA correlates one sample against the predicted leakage.
// The second-order attack correlates the *centered product* of two sample
// columns — here two logic levels of a `cycle_sampled` row — with the
// prediction: p_t = (x_i,t − μ_i)(x_j,t − μ_j), score = |ρ(p, h)| per
// level pair, max-combined per guess. This is the stronger distinguisher
// class a constant-power claim must survive beyond first-order CPA/DoM
// (the companion VLSI-flow paper's argument), and the classic attack on
// masked implementations whose shares leak at two distinct times.
//
// State: exact central co-moments up to fourth order — per column mean,
// the co-moment matrix C (diagonal = per-column M2), per pair M3_iij,
// M3_ijj, M4_iijj, per guess mean/M2 of the prediction, C_xh per
// (column, guess) and the mixed third moment M3_ijh per (pair, guess).
// With full-campaign means and n traces:
//
//   Cov(p, h)  = M3_ijh / n
//   Var(p)     = (M4_iijj − C_ij² / n) / n
//   Var(h)     = M2_h / n
//   ρ(p, h)    = M3_ijh / sqrt((M4_iijj − C_ij²/n) · M2_h)
//
// so the streamed scores equal the retained-trace centered-product
// reference to ~1e-13 while holding O(levels² · guesses) state and no
// trace.
//
// Block factoring (the dpa/block_stats.hpp pattern CPA, DoM and MultiCpa
// share): the prediction depends only on the sub-plaintext, so a block's
// mixed moment factors through per-plaintext bins,
//
//   Σ_t (dx_i dx_j)_t · dh[pt_t][g] = Σ_pt B[pt][ij] · dh[pt][g],
//
// and add_block runs no per-trace guess loop:
//  1. the block's SampledHistogram (dpa/block_stats.hpp): plaintext
//     counts (the range check is one sweep over them; the non-finite
//     check reads its per-level Σ dx²) and the block means. In engine
//     campaigns the shard feed computes it once per attacked instance
//     and MultiCpa contracts the same one (add_histogram); add_block
//     computes its own;
//  2. histogram_pairs: per plaintext Σ dx_i and Σ dx_i·dx_j, plus the
//     guess-free Σ dx², M3_iij, M3_ijj and M4 chains in trace order,
//     with the pair operands permuted in registers from eight-level
//     blocks of the centred row (no index gathers);
//  3. one contract_sums GEMM of the L + L(L−1)/2 wide bins against the
//     block-centred prediction table (pred − mean_h) yields C_xh and
//     M3_ijh together. C's off-diagonals are the column totals of the
//     pair bins, its diagonal is Σ dx².
// The table is centred before the contraction because subtracting
// mean_h·Σ from a raw-prediction contraction afterwards cancels digits.
// On an 8192-trace, six-level block at ~1e-13 J, every mixed and third
// moment stays within ~1e-14 of its scale against exact rational
// arithmetic.
//
// Shift then centre: a sample is centred as dx = (x − shift) −
// shifted_mean, shift being the block's first row. The shifted
// differences carry the ~1e-15 J data-dependent variation rather than
// the ~1e-13 J energy offset, and a constant column centres to an exact
// 0.0 — whereas x − Σx/n is rounding residue unless n is a power of two,
// which the normalisation inflates to spurious O(1e-2) scores. A
// constant-power trace stream therefore scores exactly zero.
//
// Folding: a block's sums fold into the running state — and merge()
// folds another accumulator's state — through pairwise
// (Chan/Pébay-style) combination formulas, exact up to fourth order.
// Block boundaries are the engine's fixed shard layout and every kernel
// fixes its summation order, so campaigns are bit-identical across
// threads × dispatch tiers, and the merge tree makes the
// accumulator shardable.
//
// State layout: the serialized fields, their meaning and the tag are
// those of the per-trace formulation this replaced, so its blobs still
// load and resume — matching a fresh run within 1e-12, not byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/leakage.hpp"
#include "dpa/attack.hpp"

namespace sable {

class ByteReader;
class ByteWriter;
struct SampledHistogram;  // dpa/block_stats.hpp

/// Second-order scores: per guess the largest |ρ| over all level pairs,
/// plus the (i, j) pair where the winning guess peaked — the two moments
/// in time an analyst would combine on an oscilloscope.
struct SecondOrderAttackResult {
  AttackResult combined;
  std::size_t best_pair_first = 0;
  std::size_t best_pair_second = 0;
};

/// One-pass second-order CPA accumulator over rows of `width` per-level
/// samples. The width is fixed by the first block (lazily, so callers
/// need not thread the target's level count to the constructor) and must
/// be at least 2 — a centered product needs two distinct columns.
class StreamingSecondOrderCpa {
 public:
  StreamingSecondOrderCpa(const SboxSpec& spec, PowerModel model,
                          std::size_t bit = 0);

  /// Consumes `count` traces: `pts` holds the attacked instance's
  /// sub-plaintexts, `rows` holds count rows of `width` samples. The
  /// block's central sums come from two guess-free passes and one
  /// contraction (see above) and fold in exactly, so feeding one block
  /// or many is numerically equivalent. A bad width or an out-of-range
  /// plaintext throws InvalidArgument before any state mutates.
  void add_block(const std::uint8_t* pts, const double* rows,
                 std::size_t count, std::size_t width);

  /// add_block over an already computed pass-1 histogram of exactly
  /// these rows: add_block(pts, rows, count, width) is
  /// histogram.compute(pts, rows, count, width) followed by this call,
  /// so accumulators sharing one histogram stay bit-identical to private
  /// ones.
  void add_histogram(const SampledHistogram& histogram,
                     const std::uint8_t* pts, const double* rows);

  /// Folds `other` — an accumulator over a disjoint trace subset with the
  /// same spec/model/bit and width — into this one, exactly (pairwise
  /// central co-moment combination up to fourth order).
  void merge(const StreamingSecondOrderCpa& other);

  std::size_t count() const { return sums_.n; }
  /// Samples per row; 0 until the first block fixes it.
  std::size_t width() const { return width_; }
  std::size_t num_guesses() const { return num_guesses_; }

  /// Scores over the traces consumed so far (needs at least two).
  SecondOrderAttackResult result() const;

  /// Bit-exact tagged (de)serialization (io/serial.hpp; the contract
  /// documented in streaming.hpp). A width-0 (never-fed) accumulator
  /// round trips to a width-0 accumulator.
  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // Central co-moment sums of one trace subset. Pair p runs over i < j in
  // lexicographic order; c2 is the full symmetric width×width co-moment
  // matrix (diagonal = per-column M2).
  struct Sums {
    std::size_t n = 0;
    std::vector<double> mean_x;   // [width]
    std::vector<double> mean_h;   // [guesses]
    std::vector<double> m2_h;     // [guesses]
    std::vector<double> c2;       // [width * width]
    std::vector<double> c_xh;     // [width * guesses]
    std::vector<double> m3_iij;   // [pairs]
    std::vector<double> m3_ijj;   // [pairs]
    std::vector<double> m4;       // [pairs]  Σ (dx_i dx_j)²
    std::vector<double> m3_ijh;   // [pairs * guesses]
  };
  // The same sums, read-only and laid out alike: a block's sums in the
  // per-thread block scratch, or another accumulator's state.
  struct SumsView {
    std::size_t n = 0;
    const double* mean_x;
    const double* mean_h;
    const double* m2_h;
    const double* c2;
    const double* c_xh;
    const double* m3_iij;
    const double* m3_ijj;
    const double* m4;
    const double* m3_ijh;
  };
  static SumsView view(const Sums& s);

  // Checks `width` against the fixed width (or the >= 2 rule for the
  // first block) without mutating; ensure_width then adopts it.
  void require_width(std::size_t width) const;
  void ensure_width(std::size_t width);
  SumsView block_sums(const SampledHistogram& histogram,
                      const std::uint8_t* pts, const double* rows) const;
  // Folds B into the running state: exact pairwise combination, highest
  // order first so every update reads pre-merge lower-order values.
  void combine(const SumsView& b);

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  PowerModel model_;
  std::size_t bit_;
  std::shared_ptr<const std::vector<double>> predictions_;
  std::size_t width_ = 0;
  std::size_t num_pairs_ = 0;
  Sums sums_;
};

}  // namespace sable
