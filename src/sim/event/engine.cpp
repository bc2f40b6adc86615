#include "sim/event/engine.h"

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "graph/spectral.h"
#include "serve/serve.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "support/assert.h"

namespace dex::sim {

// The event stream must be its own per-trial stream: colliding with the
// adversary's (raw seed), the overlay's or the traffic engine's derivation
// would entangle the delivery schedule with the churn/request draws and
// break the stream-separation pins (tests/test_event_engine.cpp).
// This block is the salt *registry*: tools/det_lint.py (DET005) requires
// every pair of k*SeedSalt constants to be pinned distinct by an exact
// `a != b` static_assert here — add one when introducing a new stream.
static_assert(kEventSeedSalt != 0);
static_assert(kEventSeedSalt != kOverlaySeedSalt);
static_assert(kEventSeedSalt != kTrafficSeedSalt);
static_assert(kOverlaySeedSalt != kTrafficSeedSalt);
static_assert(kEventSeedSalt != (kOverlaySeedSalt ^ kTrafficSeedSalt));

namespace {

/// Event kinds, in the order a step travels through them. The first four
/// carry a *step index* in Item.step; the serve kinds reuse the field as a
/// client index (kOpIssue/kOpArrive/kOpDone/kOpResponse) or a home node id
/// (kRehashDone) — which is why the dispatch loop resolves pending[step]
/// per-case instead of up front.
enum : std::uint32_t {
  kInject = 0,   ///< the strategy draws the step's batch; deliveries launch
  kChurnArrive,  ///< one churn constituent delivered to the overlay
  kSettle,       ///< batch applied, walks settled; traffic takes over
  kTrafficOp,    ///< one KV request (re)transmitted (batch traffic mode)
  // --- serving front-end (spec.serve.enabled; step = client id) ---
  kOpIssue,      ///< a closed-loop client draws and transmits its next op
  kOpArrive,     ///< request reaches the key's home; admission decides
  kOpDone,       ///< service complete; the op executes against the store
  kOpResponse,   ///< response reaches the client; latency recorded; think
  kRehashDone,   ///< a churn-triggered rehash job frees its station
};

/// A step's in-flight state between injection and finalization.
struct PendingStep {
  ChurnBatch batch;
  std::size_t expected = 0;  ///< churn deliveries launched
  std::size_t arrived = 0;   ///< ... and landed so far
  std::size_t ops_done = 0;  ///< traffic requests served so far
  /// Traffic requests this step owes (batch traffic mode): ops_per_step,
  /// scaled by the campaign load curve when one is active.
  std::size_t ops_expected = 0;
  /// Steps applied before this one was injected; if the count is unchanged
  /// at apply time, nothing could have raced its constituents.
  std::size_t applied_before = 0;
  std::uint64_t dropped = 0;
  bool batch_step = false;  ///< want > 1 (parallel_steps accounting)
  StepRecord rec;
  TrafficStepStats traffic;
};

/// One closed-loop client (serve mode): issue -> routed request -> admission
/// -> service -> routed response -> think -> issue again, until its op
/// budget runs dry. Exactly one op outstanding at a time, so the client
/// index alone addresses all per-op state.
struct ServeClient {
  TrafficEngine::IssuedOp op;
  /// The key's home at issue time — the station the request queues at.
  /// Execution re-resolves the *current* home, so a churn-moved key is
  /// still served correctly; only the queueing placement is pinned.
  graph::NodeId home = graph::kInvalidNode;
  std::uint64_t issued_at = 0;
  std::uint64_t remaining = 0;  ///< ops this client may still issue
  bool shed = false;            ///< current op rejected by admission
};

/// Sanity checks on a strategy-produced batch before it reaches the
/// overlay: the per-event contract of ChurnBatch (alive, distinct victims,
/// attach points surviving) plus the runner's own never-empty-the-network
/// rule. Feasibility for DEX's parallel path is *not* required here — the
/// overlay falls back to the sequential path on its own.
void validate_batch(const HealingOverlay& overlay, const ChurnBatch& batch) {
  DEX_ASSERT_MSG(overlay.n() > batch.victims.size() + 2,
                 "batch would delete the network away");
  std::unordered_set<graph::NodeId> seen;
  seen.reserve(batch.victims.size());
  for (graph::NodeId v : batch.victims) {
    DEX_ASSERT_MSG(overlay.alive(v), "strategy chose a dead victim");
    DEX_ASSERT_MSG(seen.insert(v).second,
                   "strategy chose the same victim twice in one batch");
  }
  for (graph::NodeId a : batch.attach_to) {
    DEX_ASSERT_MSG(overlay.alive(a), "strategy chose a dead attach point");
    DEX_ASSERT_MSG(!seen.contains(a),
                   "strategy attached a newcomer to a batch victim");
  }
}

/// One batch step through the unified apply() surface; fills the record's
/// per-event fields when the batch happens to be a single event (so
/// batch_size=1 traces keep their insert/delete rows) and returns the
/// outcome for aggregate bookkeeping.
BatchOutcome apply_batch_step(HealingOverlay& overlay, const ChurnBatch& batch,
                              StepRecord& rec) {
  validate_batch(overlay, batch);
  const BatchOutcome out = overlay.apply(batch);
  rec.cost = out.cost;
  rec.batch_inserts = batch.attach_to.size();
  rec.batch_deletes = batch.victims.size();
  rec.walk_epochs = out.walk_epochs;
  rec.used_type2 = out.used_type2;
  if (batch.size() == 1) {
    rec.insert = !batch.attach_to.empty();
    rec.target = rec.insert ? batch.attach_to.front() : batch.victims.front();
    rec.new_node = rec.insert ? out.inserted.front() : graph::kInvalidNode;
  } else {
    rec.insert = false;
    rec.target = graph::kInvalidNode;
    rec.new_node = graph::kInvalidNode;
  }
  return out;
}

}  // namespace

ScenarioResult ScenarioRunner::run() {
  // Lockstep is a delivery regime, not a second loop: with the event engine
  // off the trial runs under the default EventSpec — fixed:0 latency, no
  // loss, no stragglers, period 1 — whose schedule is exactly synchronous
  // rounds (one step injected, applied, settled and served per tick).
  const EventSpec regime = spec_.event.enabled ? spec_.event : EventSpec{};
  DEX_ASSERT_MSG(regime.valid(), "event spec out of range");
  DEX_ASSERT_MSG(!spec_.serve.enabled || spec_.event.enabled,
                 "serve mode needs the event engine's clock");
  // The adversary stream is the raw seed, drawn at injections in step
  // order, so the churn sequence is regime-invariant. Latency/loss/backoff
  // draws live on the salted stream (none at all under lockstep).
  support::Rng rng(spec_.seed);
  support::Rng ev_rng(spec_.seed ^ kEventSeedSalt);
  const std::uint64_t straggler_salt =
      support::mix64(spec_.seed ^ kEventSeedSalt);
  const double loss = regime.loss_rate;
  const std::uint64_t period = regime.period;

  const std::size_t base = overlay_.n();
  const auto bounds = resolve_bounds(spec_, base);
  const std::size_t min_n = bounds.min_n;
  const std::size_t max_n = bounds.max_n;
  DEX_ASSERT_MSG(bounds.valid(), "degenerate population bounds");

  adversary::AdversaryView view(overlay_);
  // Lend the maintained CSR back to the overlay for opportunistic reads
  // (batch preflight connectivity probes). The provider outlives nothing:
  // the guard detaches it before `view` dies, exceptions included.
  overlay_.set_live_view_provider(
      [&view] { return view.live_csr_if_valid(); });
  struct ProviderGuard {
    HealingOverlay& overlay;
    ~ProviderGuard() { overlay.set_live_view_provider({}); }
  } provider_guard{overlay_};

  using Clock = std::chrono::steady_clock;
  const bool timing = spec_.time_phases;
  Clock::time_point mark;
  // det: phase-timing instrumentation — feeds the perf-attribution JSON
  // only, never simulation state, so wall-clock reads cannot leak.
  const auto tic = [&] {
    if (timing) mark = Clock::now();
  };
  // det: see tic — instrumentation only.
  const auto toc = [&](double& acc) {
    if (timing)
      acc += std::chrono::duration<double, std::micro>(Clock::now() - mark)
                 .count();
  };

  // The traffic engine's RNG is salted off the spec seed, so serving
  // requests never perturbs the adversary stream: the same spec with
  // traffic off replays the identical churn.
  std::unique_ptr<TrafficEngine> traffic;
  if (spec_.traffic.enabled()) {
    traffic =
        std::make_unique<TrafficEngine>(overlay_, spec_.traffic, spec_.seed);
  }

  // A campaign: injections always go through next_batch (quiet /
  // rate-gated phases return legal empty batches) and the per-step traffic
  // budget follows the spec's load curve — the strategy object already
  // embodies the phases.
  const std::optional<adversary::CampaignSpec>& campaign = spec_.campaign;

  // The serving front-end: closed-loop clients replace the per-step request
  // batches. The total op budget stays steps x ops_per_step — the same
  // offered work as batch mode (the campaign load curve scales it per step
  // before the split) — divided round-robin across clients, and a shed
  // attempt consumes budget like a completed one, so
  // completed + shed == offered always (the conservation invariant
  // tests/test_serve.cpp pins).
  const bool serving = spec_.serve.enabled;
  DEX_ASSERT_MSG(!serving || traffic,
                 "serve mode requires a traffic workload");
  std::unique_ptr<serve::ServeState> serve_state;
  std::vector<ServeClient> clients;
  if (serving) {
    DEX_ASSERT_MSG(spec_.serve.valid(), "serve spec out of range");
    serve_state = std::make_unique<serve::ServeState>(spec_.serve);
    clients.resize(spec_.serve.clients);
    const std::uint64_t budget =
        campaign ? campaign->total_ops(spec_.traffic.ops_per_step, spec_.steps)
                 : static_cast<std::uint64_t>(spec_.steps) *
                       spec_.traffic.ops_per_step;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients[c].remaining =
          budget / clients.size() + (c < budget % clients.size() ? 1 : 0);
    }
  }

  ScenarioResult result;
  result.backend = overlay_.name();
  result.spec = spec_;
  result.start_n = base;
  if (spec_.record_trace) result.trace.reserve(spec_.steps);

  // Warmup stays synchronous by definition: it models the pre-attack
  // steady state, not the delivery regime under test. Each step is a
  // one-event batch through the same validate-then-apply path as the
  // strategy's steps.
  if (spec_.warmup_steps > 0) {
    adversary::RandomChurn warmup(spec_.warmup_insert_prob);
    for (std::size_t t = 0; t < spec_.warmup_steps; ++t) {
      const adversary::ChurnAction a = warmup.next(view, rng, min_n, max_n);
      ChurnBatch batch;
      (a.insert ? batch.attach_to : batch.victims).push_back(a.target);
      validate_batch(overlay_, batch);
      (void)overlay_.apply(batch);
      view.advance();
    }
  }

  std::vector<double> rounds, messages, topology;
  rounds.reserve(spec_.steps);
  messages.reserve(spec_.steps);
  topology.reserve(spec_.steps);

  // Stable straggler membership: a pure hash of (node id, trial seed), so
  // joiners get a verdict too and no RNG stream is consumed. 53-bit
  // comparison sidesteps the fraction*2^64 overflow at f = 1.
  const auto is_straggler = [&](graph::NodeId u) {
    const double f = regime.straggler_fraction;
    if (f <= 0.0) return false;
    if (f >= 1.0) return true;
    const std::uint64_t h = support::mix64(
        straggler_salt ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{u} + 1)));
    return (h >> 11) < static_cast<std::uint64_t>(f * 9007199254740992.0);
  };
  const auto link_latency = [&](graph::NodeId dest) {
    std::uint64_t d = regime.latency.sample(ev_rng);
    if (is_straggler(dest)) d *= regime.straggler_factor;
    return d;
  };

  EventQueue queue;
  std::vector<PendingStep> pending(spec_.steps);
  /// Churn deliveries currently in the air across all steps — the
  /// healing-racing-churn signal the trace's in_flight column reports.
  std::size_t in_flight = 0;
  /// Steps applied so far (the strategy-contract check in apply_step).
  std::size_t applied_steps = 0;

  for (std::size_t t = 0; t < spec_.steps; ++t) {
    queue.push(static_cast<std::uint64_t>(t) * period, kInject, t);
  }

  // Serve-mode epoch attribution: client ops are not tied to a step, so a
  // step's record covers the *window* from its own settlement to the next
  // one (the last window closes when the queue drains). open_epoch is the
  // step whose window is currently collecting; records still emit in
  // settlement order, exactly like batch mode.
  constexpr std::size_t kNoEpoch = ~std::size_t{0};
  std::size_t open_epoch = kNoEpoch;
  bool clients_spawned = false;
  std::uint64_t last_time = 0;

  const auto finalize = [&](std::size_t t, std::uint64_t now) {
    PendingStep& p = pending[t];
    StepRecord& rec = p.rec;
    if (traffic) {
      const TrafficStepStats& ts = p.traffic;
      rec.ops = ts.ops;
      rec.op_hops = ts.op_hops;
      rec.opt_hops = ts.opt_hops;
      rec.failed_lookups = ts.failed_lookups;
      rec.failed_writes = ts.failed_writes;
      rec.moved_keys = ts.moved_keys;
      rec.rehash_messages = ts.rehash_messages;
      result.total_ops += ts.ops;
      result.total_op_hops += ts.op_hops;
      result.total_opt_hops += ts.opt_hops;
      result.total_failed_lookups += ts.failed_lookups;
      result.total_failed_writes += ts.failed_writes;
      result.total_moved_keys += ts.moved_keys;
      result.total_rehash_messages += ts.rehash_messages;
    }
    rec.vtime = now;
    rec.in_flight = in_flight;
    rec.dropped = p.dropped;
    result.total_dropped += p.dropped;
    result.max_in_flight = std::max(result.max_in_flight, in_flight);
    result.total_inserts += rec.batch_inserts;
    result.total_deletes += rec.batch_deletes;
    result.total_walk_epochs += rec.walk_epochs;
    if (rec.used_type2) ++result.type2_steps;
    if (spec_.measure_degree) {
      rec.max_degree = overlay_.max_degree();
      result.max_degree = std::max(result.max_degree, rec.max_degree);
    }
    if (spec_.gap_every > 0 && t % spec_.gap_every == 0) {
      // Clamp at 0: near-disconnection the solver's Rayleigh estimate can
      // round to a tiny negative, which would collide with the -1 "not
      // sampled" sentinel.
      rec.gap = std::max(0.0, graph::spectral_gap(view.live_csr()).gap);
      result.min_gap = std::min(result.min_gap, rec.gap);
    }
    rounds.push_back(static_cast<double>(rec.cost.rounds));
    messages.push_back(static_cast<double>(rec.cost.messages));
    topology.push_back(static_cast<double>(rec.cost.topology_changes));
    result.total += rec.cost;
    if (observer_) {
      observer_(rec, overlay_);
      // The observer holds a mutable overlay reference; advance so its
      // mutations drain from the journal before the next step reads the
      // view.
      view.advance();
    }
    if (spec_.record_trace) result.trace.push_back(rec);
  };

  // Folds the collecting window into the open epoch's record and emits it.
  const auto close_epoch = [&](std::uint64_t now) {
    if (open_epoch == kNoEpoch) return;
    const serve::ServeWindow w = serve_state->take_window();
    StepRecord& rec = pending[open_epoch].rec;
    rec.shed = w.shed;
    rec.timeouts = w.timeouts;
    rec.queue_peak = w.peak_queue;
    finalize(open_epoch, now);
    open_epoch = kNoEpoch;
  };

  // One network leg: the geometric loss-retransmit discipline every
  // delivery pays. Each lost copy is a dropped delivery charged to
  // `dropped`, costing a 1-tick timeout plus a fresh latency sample before
  // the resend.
  const auto leg = [&](graph::NodeId dest, std::uint64_t& dropped) {
    std::uint64_t delay = 0;
    if (loss > 0) {
      while (ev_rng.chance(loss)) {
        ++dropped;
        delay += 1 + link_latency(dest);
      }
    }
    return delay + link_latency(dest);
  };

  const auto apply_step = [&](std::size_t t, std::uint64_t now) {
    PendingStep& p = pending[t];
    // Filter constituents invalidated by churn that settled while this
    // batch was in flight (only possible when latency outruns the injection
    // period): dead victims, dead attach points, and trailing deletions
    // that would now push the population below the overlay's structural
    // floor (HealingOverlay::min_population — the flip chain, for one,
    // cannot rewire a departure below d+2 alive nodes). Each filtered
    // event is a dropped delivery — the overlay never sees it. If no other
    // step applied since the injection (lockstep, always), nothing raced
    // the batch, so a dead constituent is a strategy bug and aborts; the
    // floor trim stays a clamp.
    const bool raced = applied_steps != p.applied_before;
    ChurnBatch live;
    live.victims.reserve(p.batch.victims.size());
    live.attach_to.reserve(p.batch.attach_to.size());
    for (const graph::NodeId v : p.batch.victims) {
      if (overlay_.alive(v)) {
        live.victims.push_back(v);
      } else {
        DEX_ASSERT_MSG(raced, "strategy chose a dead victim");
        ++p.dropped;
      }
    }
    const std::size_t floor_n = overlay_.min_population();
    while (!live.victims.empty() &&
           overlay_.n() < live.victims.size() + floor_n) {
      live.victims.pop_back();
      ++p.dropped;
    }
    for (const graph::NodeId a : p.batch.attach_to) {
      if (overlay_.alive(a)) {
        live.attach_to.push_back(a);
      } else {
        DEX_ASSERT_MSG(raced, "strategy chose a dead attach point");
        ++p.dropped;
      }
    }
    p.batch = ChurnBatch{};  // the buffers are dead weight from here on
    tic();
    const BatchOutcome out = apply_batch_step(overlay_, live, p.rec);
    toc(result.churn_us);
    ++applied_steps;
    tic();
    view.advance();
    toc(result.view_us);
    if (p.batch_step && out.parallel) ++result.parallel_steps;
    p.rec.n = overlay_.n();
    // Walk settlement: the healing protocol's completion notice pays one
    // more link traversal (no straggler multiplier — it aggregates over the
    // whole repair neighborhood) before traffic resumes against the step.
    queue.push(now + regime.latency.sample(ev_rng), kSettle, t);
  };

  while (!queue.empty()) {
    const EventQueue::Item ev = queue.pop();
    last_time = ev.time;
    // Item.step is a step index only for the churn/batch-traffic kinds; the
    // serve kinds carry a client index or node id, so each case resolves
    // its own state.
    const std::size_t t = static_cast<std::size_t>(ev.step);
    switch (ev.kind) {
      case kInject: {
        PendingStep& p = pending[t];
        p.rec.step = t;
        p.applied_before = applied_steps;
        // Burst pattern: every step is a batch when burst_every is 0;
        // otherwise only every burst_every-th step bursts and the rest are
        // single events.
        const bool burst =
            spec_.burst_every == 0 || t % spec_.burst_every == 0;
        const std::size_t want =
            burst ? std::max<std::size_t>(spec_.batch_size, 1) : 1;
        ChurnBatch batch;
        if (campaign) {
          // Campaign steps are batch-first even at want == 1 — empty
          // batches are how quiet phases and rate gates manifest.
          batch = strategy_.next_batch(view, rng, min_n, max_n, want);
        } else if (want <= 1) {
          // Single-event steps keep the per-event decision path (one
          // next() draw, so single-event specs replay the same strategy
          // stream) but the event goes through the same apply() surface as
          // every batch.
          const adversary::ChurnAction a =
              strategy_.next(view, rng, min_n, max_n);
          if (a.insert) {
            batch.attach_to.push_back(a.target);
          } else {
            batch.victims.push_back(a.target);
          }
        } else {
          batch = strategy_.next_batch(view, rng, min_n, max_n, want);
        }
        // The hotspot workload notes the region about to churn (adjacency
        // from the maintained pre-churn view).
        if (traffic) traffic->observe_churn(batch, view);
        p.batch_step = want > 1;
        p.expected = batch.size();
        p.batch = std::move(batch);
        if (p.expected == 0) {
          apply_step(t, ev.time);
          break;
        }
        // One delivery per constituent, in ChurnBatch's canonical order
        // (victims, then attach points).
        const auto launch = [&](graph::NodeId dest) {
          const std::uint64_t delay = leg(dest, p.dropped);
          ++in_flight;
          queue.push(ev.time + delay, kChurnArrive, t);
        };
        for (const graph::NodeId v : p.batch.victims) launch(v);
        for (const graph::NodeId a : p.batch.attach_to) launch(a);
        break;
      }
      case kChurnArrive: {
        PendingStep& p = pending[t];
        DEX_ASSERT(in_flight > 0);
        --in_flight;
        if (++p.arrived == p.expected) apply_step(t, ev.time);
        break;
      }
      case kSettle: {
        PendingStep& p = pending[t];
        if (traffic) {
          // Adopt the post-churn view: re-home displaced keys and refresh
          // the hotspot targets.
          tic();
          p.traffic = traffic->begin_step(view);
          toc(result.traffic_us);
        }
        if (serving) {
          // Every moved key becomes a rehash job at its new home — the
          // rehash storm that backpressures client traffic through the
          // shared stations.
          close_epoch(ev.time);
          open_epoch = t;
          const KvStore& store = traffic->store();
          for (const std::uint64_t key : store.last_moved()) {
            const graph::NodeId home = store.home(key);
            queue.push(serve_state->admit_rehash(home, ev.time),
                       kRehashDone, home);
          }
          if (!clients_spawned) {
            clients_spawned = true;
            for (std::size_t c = 0; c < clients.size(); ++c) {
              if (clients[c].remaining > 0) queue.push(ev.time, kOpIssue, c);
            }
          }
          break;
        }
        if (traffic) {
          p.ops_expected =
              campaign ? campaign->scaled_ops(spec_.traffic.ops_per_step, t)
                       : spec_.traffic.ops_per_step;
          if (p.ops_expected > 0) {
            // Requests fire back-to-back at settle time; latency shapes the
            // *churn* pipeline, while request loss below shapes serving.
            for (std::size_t i = 0; i < p.ops_expected; ++i) {
              queue.push(ev.time, kTrafficOp, t);
            }
            break;
          }
        }
        finalize(t, ev.time);
        break;
      }
      case kTrafficOp: {
        PendingStep& p = pending[t];
        if (loss > 0 && ev_rng.chance(loss)) {
          // Request lost in flight: retransmit after a 1-tick timeout plus
          // a fresh latency draw. The op is delayed, not failed — failures
          // stay what they always were, routing/lookup outcomes.
          ++p.dropped;
          queue.push(ev.time + 1 + regime.latency.sample(ev_rng), kTrafficOp,
                     t);
          break;
        }
        tic();
        traffic->complete_op(traffic->issue_op(), p.traffic);
        toc(result.traffic_us);
        if (++p.ops_done == p.ops_expected) finalize(t, ev.time);
        break;
      }
      case kOpIssue: {
        // The client's decision point: draw the request now, pin the home
        // for admission, and put the request on the wire. The budget unit
        // is spent here — shed or served, the attempt happened.
        ServeClient& c = clients[t];
        DEX_ASSERT(c.remaining > 0);
        --c.remaining;
        tic();
        c.op = traffic->issue_op();
        c.home = traffic->store().home(c.op.key);
        toc(result.traffic_us);
        c.issued_at = ev.time;
        c.shed = false;
        queue.push(ev.time + leg(c.home, pending[open_epoch].dropped),
                   kOpArrive, t);
        break;
      }
      case kOpArrive: {
        ServeClient& c = clients[t];
        const auto adm = serve_state->admit(c.home, ev.time);
        if (adm.admitted) {
          queue.push(adm.done_at, kOpDone, t);
        } else {
          // Queue full: admission control sheds the request with an
          // immediate rejection response (the trip back still costs a leg).
          c.shed = true;
          serve_state->record_shed();
          queue.push(ev.time + leg(c.op.origin, pending[open_epoch].dropped),
                     kOpResponse, t);
        }
        break;
      }
      case kOpDone: {
        // Service complete: free the station, execute the op against the
        // store *as it is now* — churn and other clients may have moved
        // things since issue — and send the response home.
        ServeClient& c = clients[t];
        serve_state->depart(c.home);
        tic();
        traffic->complete_op(c.op, pending[open_epoch].traffic);
        toc(result.traffic_us);
        queue.push(ev.time + leg(c.op.origin, pending[open_epoch].dropped),
                   kOpResponse, t);
        break;
      }
      case kOpResponse: {
        ServeClient& c = clients[t];
        if (!c.shed) {
          serve_state->record_completion(ev.time - c.issued_at);
        }
        if (c.remaining > 0) {
          queue.push(ev.time + spec_.serve.think_ticks, kOpIssue, t);
        }
        break;
      }
      case kRehashDone: {
        serve_state->depart(static_cast<graph::NodeId>(ev.step));
        break;
      }
    }
  }
  DEX_ASSERT_MSG(in_flight == 0, "event loop drained with deliveries in air");
  if (serving) {
    // The last epoch's window closes when the queue drains — every client
    // budget is spent and every rehash job done by construction.
    close_epoch(last_time);
    serve_state->depart_all_check();
    result.serve_completed = serve_state->total_completed();
    result.serve_shed = serve_state->total_shed();
    result.serve_timeouts = serve_state->total_timeouts();
    result.serve_peak_queue = serve_state->peak_queue();
    result.serve_makespan = last_time;
    result.serve_latency = serve_state->latency();
  }

  result.rounds = metrics::summarize(std::move(rounds));
  result.messages = metrics::summarize(std::move(messages));
  result.topology = metrics::summarize(std::move(topology));
  result.final_n = overlay_.n();
  return result;
}

}  // namespace dex::sim
