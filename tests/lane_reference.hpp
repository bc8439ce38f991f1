// The kernel reference for the table-gathered batch path.
//
// RoundTarget::trace_batch / trace_batch_sampled gather from exact
// energy tables, with the trace at position k of a call on logical lane
// k % 64. The reference keeps one round kernel per logical lane and feeds
// it that lane's traces through the width-1 trace() / trace_sampled(), so
// each lane carries its own history across calls exactly as the batch
// path must. Scalar and time-resolved references keep separate kernels:
// both advance the simulator state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/round_target.hpp"
#include "util/rng.hpp"

namespace sable {

class LaneReference {
 public:
  static constexpr std::size_t kLogicalLanes = 64;

  explicit LaneReference(const RoundKernel& prototype) {
    for (std::size_t lane = 0; lane < kLogicalLanes; ++lane) {
      scalar_.push_back(prototype.clone());
      sampled_.push_back(prototype.clone());
    }
  }

  /// Noiseless per-lane trace() samples of one batch call.
  std::vector<double> scalar(const std::uint8_t* pts, std::size_t count,
                             const std::uint8_t* key) {
    const std::size_t stride = scalar_[0].round().state_bytes();
    Rng no_noise(0);
    std::vector<double> out(count);
    for (std::size_t t = 0; t < count; ++t) {
      out[t] = scalar_[t % kLogicalLanes].trace(pts + t * stride, key, 0.0,
                                                no_noise);
    }
    return out;
  }

  /// Noiseless per-lane trace_sampled() rows of one batch call.
  std::vector<double> sampled(const std::uint8_t* pts, std::size_t count,
                              const std::uint8_t* key) {
    const std::size_t stride = sampled_[0].round().state_bytes();
    const std::size_t width = sampled_[0].num_levels();
    Rng no_noise(0);
    std::vector<double> rows(count * width);
    for (std::size_t t = 0; t < count; ++t) {
      sampled_[t % kLogicalLanes].trace_sampled(pts + t * stride, key, 0.0,
                                                no_noise, &rows[t * width]);
    }
    return rows;
  }

 private:
  std::vector<RoundKernel> scalar_;
  std::vector<RoundKernel> sampled_;
};

/// The rounds the table tests sweep: one and sixteen PRESENT S-boxes, a
/// mixed-width PRESENT/DES/AES round (byte-straddling sub-words, unequal
/// logic depths), and one AES S-box (the largest table).
inline std::vector<RoundSpec> table_test_rounds(LogicStyle style) {
  RoundSpec mixed;
  mixed.sboxes = {present_spec(), des1_spec(), aes_spec()};
  mixed.style = style;
  return {present_round(1, style), present_round(16, style), mixed,
          aes_subbytes_round(1, style)};
}

}  // namespace sable
