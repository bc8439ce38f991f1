#include "engine/shard_feed.hpp"

#include <algorithm>

#include "crypto/round_target.hpp"

namespace sable {

ShardFeed::ShardFeed(const RoundSpec& round,
                     std::span<Distinguisher* const> distinguishers)
    : round_(round),
      distinguishers_(distinguishers),
      slot_of_(distinguishers.size()),
      alias_(round.num_sboxes() == 1 && round.state_bytes() == 1) {
  for (std::size_t d = 0; d < distinguishers.size(); ++d) {
    const std::size_t index = distinguishers[d]->sbox_index();
    const auto it = std::find(slot_sbox_.begin(), slot_sbox_.end(), index);
    slot_of_[d] = static_cast<std::size_t>(it - slot_sbox_.begin());
    if (it == slot_sbox_.end()) {
      slot_sbox_.push_back(index);
      slot_scalar_.push_back(false);
      slot_sampled_.push_back(false);
    }
    if (distinguishers[d]->data_kind() == TraceDataKind::kScalar) {
      slot_scalar_[slot_of_[d]] = true;
    } else {
      slot_sampled_[slot_of_[d]] = true;
    }
  }
}

bool ShardFeed::consumes(TraceDataKind kind) const {
  return std::any_of(
      distinguishers_.begin(), distinguishers_.end(),
      [&](const Distinguisher* d) { return d->data_kind() == kind; });
}

void ShardFeed::feed(const ShardTraces& traces, ShardStates& states,
                     Scratch& scratch) const {
  const std::size_t slots = slot_sbox_.size();
  const std::uint8_t* sub_pts = traces.pts;
  if (!alias_) {
    if (scratch.sub_pts.size() < traces.count * slots) {
      scratch.sub_pts.resize(traces.count * slots);
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      round_.sub_words(traces.pts, traces.count, slot_sbox_[slot],
                       scratch.sub_pts.data() + slot * traces.count);
    }
    sub_pts = scratch.sub_pts.data();
  }
  scratch.histograms.resize(slots);
  scratch.sampled.resize(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::uint8_t* slot_pts = sub_pts + slot * traces.count;
    if (slot_scalar_[slot]) {
      scratch.histograms[slot].compute(slot_pts, traces.scalar, traces.count);
    }
    if (slot_sampled_[slot]) {
      scratch.sampled[slot].compute(slot_pts, traces.rows, traces.count,
                                    traces.levels);
    }
  }
  for (std::size_t d = 0; d < distinguishers_.size(); ++d) {
    const bool scalar =
        distinguishers_[d]->data_kind() == TraceDataKind::kScalar;
    ShardBlock block;
    block.start = traces.start;
    block.sub_pts = sub_pts + slot_of_[d] * traces.count;
    block.data = scalar ? traces.scalar : traces.rows;
    block.width = scalar ? 1 : traces.levels;
    block.count = traces.count;
    block.histogram = scalar ? &scratch.histograms[slot_of_[d]] : nullptr;
    block.sampled_histogram = scalar ? nullptr : &scratch.sampled[slot_of_[d]];
    auto& state = states[d][traces.shard];
    state = distinguishers_[d]->make_shard_accumulator();
    state->accumulate(block);
  }
}

}  // namespace sable
