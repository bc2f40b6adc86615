#pragma once

/// \file serve.h
/// The serving front-end's deterministic core: ServeSpec (the knobs the
/// CLI/ExperimentPlan carry) and ServeState (per-home-node bounded queues
/// with admission control, a tail-latency histogram, and the per-epoch
/// window counters the trace columns report). The runner's event loop
/// (sim/event/engine.cpp) drives this state from closed-loop client events
/// on its virtual clock; everything here is a pure function of the call
/// sequence — no RNG, no wall clock — so serve-mode traces stay
/// byte-identical across --jobs.
///
/// Queueing model: the unit of admission is the *home node*. Each node
/// owns a Station{queue depth, server busy-until tick}; an arriving request
/// either occupies a queue slot (service starts when the server frees up —
/// FIFO emerges from the deterministic event order) or, with the queue at
/// spec.queue_depth, is shed with a rejection response. Churn-triggered
/// rehash jobs enter the same stations — exempt from the admission bound
/// (the store must converge) but occupying the server for
/// kRehashServiceFactor x the op service time, which is exactly how a
/// rehash storm backpressures concurrent client traffic.
///
/// This header sits below sim/scenario.h (ScenarioSpec embeds ServeSpec)
/// and knows nothing about overlays, events or the runner.

#include <cstdint>
#include <unordered_map>

#include "graph/multigraph.h"
#include "metrics/histogram.h"

namespace dex::serve {

/// Declarative description of the serving front-end regime. Disabled by
/// default; requires `--engine event` (closed-loop clients are timed
/// actors, and the sync engine pins the lockstep regime).
struct ServeSpec {
  /// Engine selector (`--serve`). Everything below needs it.
  bool enabled = false;
  /// Closed-loop clients: each issues one request, waits for the response,
  /// thinks, and issues the next — so `clients` is the ops-in-flight
  /// ceiling and the saturation sweep's offered-load axis.
  std::size_t clients = 8;
  /// Virtual ticks a client thinks between a response and its next issue.
  std::uint64_t think_ticks = 0;
  /// Bounded per-home request queue: arrivals finding this many requests
  /// queued are shed (admission control).
  std::size_t queue_depth = 16;
  /// Server occupancy per client op, in ticks.
  std::uint64_t service_ticks = 1;
  /// Client-side SLO: a completed op whose end-to-end latency exceeds this
  /// counts in the timeout column (the work still happened — deterministic
  /// engines do not cancel). 0 disables the accounting.
  std::uint64_t op_timeout = 0;

  /// Bounds the engine refuses to run outside; the CLI validates with the
  /// same predicate.
  [[nodiscard]] bool valid() const {
    return clients >= 1 && queue_depth >= 1 && service_ticks >= 1;
  }
};

/// One epoch's serve-side tallies — the window between two step
/// finalizations, folded into StepRecord's shed/timeouts/qdepth columns.
struct ServeWindow {
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t timeouts = 0;
  std::size_t peak_queue = 0;  ///< deepest station queue seen this window
};

/// The deterministic serving state the event engine mutates. All times are
/// virtual ticks from the engine's clock; admission decisions depend only
/// on (spec, call sequence).
class ServeState {
 public:
  /// Rehash jobs occupy the server this many times longer than a client op
  /// — re-homing a key means pulling its value across the overlay, not
  /// answering from memory.
  static constexpr std::uint64_t kRehashServiceFactor = 4;

  explicit ServeState(const ServeSpec& spec);

  /// Admission for a client request arriving at `home` at tick `now`.
  /// Returns the service-completion tick, or 0 with `admitted == false`
  /// when the queue is full and the request is shed.
  struct Admission {
    bool admitted = false;
    std::uint64_t done_at = 0;
  };
  [[nodiscard]] Admission admit(graph::NodeId home, std::uint64_t now);

  /// A rehash job entering `home`'s station: bypasses the depth bound but
  /// holds a queue slot and the server for kRehashServiceFactor x
  /// service_ticks. Returns its completion tick.
  [[nodiscard]] std::uint64_t admit_rehash(graph::NodeId home,
                                           std::uint64_t now);

  /// Releases the queue slot admit()/admit_rehash() took (call when the
  /// job's service completes).
  void depart(graph::NodeId home);

  /// Records a completed op's end-to-end latency into the histogram and
  /// the window counters; flags it as a timeout when the spec's SLO is set
  /// and exceeded.
  void record_completion(std::uint64_t latency);

  /// Counts one shed request into the window.
  void record_shed();

  /// Drain invariant: every admitted job eventually departed. The engine
  /// calls this once its event queue empties.
  void depart_all_check() const;

  /// Returns this window's tallies and opens the next one. Totals keep
  /// accumulating across windows.
  ServeWindow take_window();

  // Lifetime totals (across all windows).
  [[nodiscard]] std::size_t total_completed() const {
    return total_completed_;
  }
  [[nodiscard]] std::size_t total_shed() const { return total_shed_; }
  [[nodiscard]] std::size_t total_timeouts() const {
    return total_timeouts_;
  }
  [[nodiscard]] std::size_t peak_queue() const { return peak_queue_; }

  /// End-to-end latency of every completed op.
  [[nodiscard]] const metrics::LatencyHistogram& latency() const {
    return latency_;
  }

 private:
  struct Station {
    std::size_t depth = 0;       ///< jobs queued or in service
    std::uint64_t free_at = 0;   ///< tick the server frees up
  };
  Station& station(graph::NodeId home) { return stations_[home]; }
  std::uint64_t enqueue(Station& st, std::uint64_t now,
                        std::uint64_t service);

  ServeSpec spec_;
  /// Lookup-only (iteration order never observed), so the unordered map
  /// cannot leak nondeterminism into the trace.
  std::unordered_map<graph::NodeId, Station> stations_;
  /// Jobs queued or in service across all stations (the drain check).
  std::size_t queued_ = 0;
  metrics::LatencyHistogram latency_;
  ServeWindow window_;
  std::size_t total_completed_ = 0;
  std::size_t total_shed_ = 0;
  std::size_t total_timeouts_ = 0;
  std::size_t peak_queue_ = 0;
};

}  // namespace dex::serve
