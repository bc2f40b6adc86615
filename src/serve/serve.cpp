#include "serve/serve.h"

#include <algorithm>

#include "support/assert.h"

namespace dex::serve {

ServeState::ServeState(const ServeSpec& spec) : spec_(spec) {
  DEX_ASSERT_MSG(spec_.valid(), "serve spec out of range");
}

std::uint64_t ServeState::enqueue(Station& st, std::uint64_t now,
                                  std::uint64_t service) {
  ++st.depth;
  ++queued_;
  window_.peak_queue = std::max(window_.peak_queue, st.depth);
  peak_queue_ = std::max(peak_queue_, st.depth);
  const std::uint64_t start = std::max(now, st.free_at);
  st.free_at = start + service;
  return st.free_at;
}

ServeState::Admission ServeState::admit(graph::NodeId home,
                                        std::uint64_t now) {
  Station& st = station(home);
  if (st.depth >= spec_.queue_depth) return {};
  return {true, enqueue(st, now, spec_.service_ticks)};
}

std::uint64_t ServeState::admit_rehash(graph::NodeId home,
                                       std::uint64_t now) {
  return enqueue(station(home), now,
                 kRehashServiceFactor * spec_.service_ticks);
}

void ServeState::depart(graph::NodeId home) {
  Station& st = station(home);
  DEX_ASSERT_MSG(st.depth > 0, "departure from an empty station");
  --st.depth;
  --queued_;
}

void ServeState::record_completion(std::uint64_t latency) {
  latency_.record(latency);
  ++window_.completed;
  ++total_completed_;
  if (spec_.op_timeout > 0 && latency > spec_.op_timeout) {
    ++window_.timeouts;
    ++total_timeouts_;
  }
}

void ServeState::record_shed() {
  ++window_.shed;
  ++total_shed_;
}

void ServeState::depart_all_check() const {
  // queued_ is the sum of every station's depth, and depart() never lets a
  // depth go negative, so zero here means every station is empty.
  DEX_ASSERT_MSG(queued_ == 0, "drained with jobs still queued");
}

ServeWindow ServeState::take_window() {
  ServeWindow out = window_;
  window_ = ServeWindow{};
  return out;
}

}  // namespace dex::serve
