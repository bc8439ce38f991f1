// A campaign's traces kept in memory, for tests that compare whole trace
// sequences: TraceEngine::stream() collected into a TraceSet in canonical
// order, with the round's packed state width as pt_width.
#pragma once

#include <cstddef>
#include <cstdint>

#include "engine/trace_engine.hpp"
#include "power/trace.hpp"

namespace sable {

inline TraceSet retained_campaign(TraceEngine& engine,
                                  const CampaignOptions& options) {
  TraceSet traces;
  traces.pt_width = engine.round().state_bytes();
  traces.reserve(options.num_traces);
  engine.stream(options, [&](const std::uint8_t* pts, const double* samples,
                             std::size_t count) {
    traces.add_batch(pts, samples, count);
  });
  return traces;
}

}  // namespace sable
