#pragma once

/// \file engine.h
/// The event-driven simulation core. ScenarioRunner::run (defined in
/// engine.cpp) is one deterministic discrete-event loop: churn
/// constituents, walk settlement and KV requests are timestamped deliveries
/// in the EventQueue below, subject to the EventSpec's latency
/// distribution, i.i.d. loss and straggler injection. This expresses
/// healing racing churn (batch t+1's deliveries land before batch t's walks
/// settle), partially-invalidated batches and loss-driven retransmit
/// storms. The `sync` engine is not a second loop: it is this one under the
/// default EventSpec (latency fixed:0, loss 0, no stragglers, period 1),
/// whose schedule is exactly the lockstep rounds the paper assumes (pinned
/// byte for byte by tests/test_lockstep_golden.sh).
///
/// Determinism contract (the same one the rest of the tree honors): spec +
/// seed reproduce the byte-exact trace, whatever --jobs says.
/// Three independent RNG streams keep the axes orthogonal — the adversary's
/// (raw seed), the traffic engine's (kTrafficSeedSalt) and the event
/// stream's (kEventSeedSalt) — so latency, loss and straggler knobs never
/// perturb the churn or request draws (tests/test_event_engine.cpp).

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dex::sim {

/// Min-heap of timestamped events with deterministic tie-breaking: pops are
/// ordered by (time, insertion sequence), so simultaneous events drain FIFO
/// and the schedule is a pure function of the push sequence — no
/// container-order or comparator-stability leaks into the trace.
class EventQueue {
 public:
  struct Item {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;   ///< global insertion counter (the tie-break)
    std::uint32_t kind = 0;  ///< engine-defined event tag
    std::uint64_t step = 0;  ///< the scenario step the event belongs to
  };

  void push(std::uint64_t time, std::uint32_t kind, std::uint64_t step) {
    heap_.push_back(Item{time, seq_++, kind, step});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Removes and returns the (time, seq)-minimal event.
  Item pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Item it = heap_.back();
    heap_.pop_back();
    return it;
  }

 private:
  /// "x fires later than y" — the max-heap order std::push_heap wants,
  /// inverted so the top is the earliest (time, seq).
  static bool later(const Item& x, const Item& y) {
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  }

  std::vector<Item> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace dex::sim
