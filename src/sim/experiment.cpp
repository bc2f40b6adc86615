#include "sim/experiment.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "support/assert.h"

namespace dex::sim {

namespace {

bool name_known(const std::vector<std::string>& names,
                const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

std::optional<std::string> ExperimentPlan::validate() const {
  if (backends.empty() || scenarios.empty() || populations.empty() ||
      batch_sizes.empty() || seeds.empty()) {
    return "every plan axis needs at least one value";
  }
  for (std::size_t batch : batch_sizes) {
    if (batch == 0) return "--batch-size must be >= 1";
  }
  if (!(opts.insert_prob >= 0.0 && opts.insert_prob <= 1.0)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", opts.insert_prob);
    return std::string("--insert-prob must be in [0, 1], got ") + buf;
  }
  for (const auto& b : backends) {
    if (!name_known(known_overlays(), b)) {
      return "unknown backend '" + b + "' (valid: " + overlay_names() + ")";
    }
  }
  for (const auto& s : scenarios) {
    if (!name_known(known_strategies(), s)) {
      return "unknown scenario '" + s + "' (valid: " + strategy_names() + ")";
    }
  }
  const TrafficSpec& t = base.traffic;
  if (t.enabled()) {
    if (!name_known(known_workloads(), t.workload)) {
      return "unknown workload '" + t.workload +
             "' (valid: " + workload_names() + ")";
    }
    if (t.ops_per_step == 0 || t.keyspace == 0) {
      return "--ops-per-step and --keys must be >= 1 with a workload";
    }
    if (!(t.zipf_s > 0.0)) return "--zipf must be > 0";
    if (!(t.read_fraction >= 0.0 && t.read_fraction <= 1.0)) {
      return "--read-frac must be in [0, 1]";
    }
  }
  // Same predicates the engine asserts, surfaced as messages.
  if (base.event.enabled && !base.event.valid()) {
    return "event spec out of range: --loss in [0, 1), --stragglers in "
           "[0, 1], --straggler-factor >= 1, --period >= 1";
  }
  if (base.serve.enabled) {
    // Closed-loop clients live on the event clock and issue the workload's
    // requests; both prerequisites are hard.
    if (!base.event.enabled || !t.enabled()) {
      return "--serve needs --engine event and a --workload";
    }
    if (!base.serve.valid()) {
      return "serve spec out of range: --clients, --queue-depth and "
             "--service must be >= 1";
    }
  }
  if (base.burst_every > 0 &&
      *std::max_element(batch_sizes.begin(), batch_sizes.end()) <= 1) {
    return "--burst only paces batches; give it something to pace with "
           "--batch-size > 1";
  }
  // The bounds the runner will actually use (0 derives from n0).
  for (std::size_t n0 : populations) {
    const auto bounds = resolve_bounds(base, n0);
    if (!bounds.valid()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "population bounds must satisfy 3 <= min < max (got "
                    "min=%zu max=%zu for n0=%zu; defaults derive from --n0)",
                    bounds.min_n, bounds.max_n, n0);
      return std::string(buf);
    }
  }
  return std::nullopt;
}

std::vector<TrialSpec> ExperimentPlan::expand() const {
  const auto problem = validate();
  DEX_ASSERT_MSG(!problem, problem ? problem->c_str() : nullptr);

  std::vector<TrialSpec> trials;
  trials.reserve(trial_count());
  for (const auto& backend : backends) {
    for (const auto& scenario : scenarios) {
      for (std::size_t n0 : populations) {
        for (std::size_t batch : batch_sizes) {
          for (std::uint64_t seed : seeds) {
            TrialSpec t;
            t.index = trials.size();
            t.backend = backend;
            t.scenario = scenario;
            t.n0 = n0;
            t.spec = base;
            t.spec.seed = seed;
            t.spec.batch_size = batch;
            if (t.spec.label.empty()) t.spec.label = scenario;
            t.opts = opts;
            if (customize) customize(t);
            // Default factories are wired *after* customize, from the
            // trial's final fields — a hook that remaps spec.seed, opts or
            // backend must reach the constructed objects. A hook that
            // installed its own factory keeps it.
            if (!t.make_overlay) {
              t.make_overlay = [backend = t.backend, n0 = t.n0,
                                seed = t.spec.seed] {
                return sim::make_overlay(backend, n0, overlay_seed(seed));
              };
            }
            if (!t.make_strategy) {
              if (t.spec.campaign) {
                // A campaign spec on the trial overrides the scenario axis:
                // the phases name their own strategies.
                t.make_strategy = [campaign = *t.spec.campaign,
                                   opts = t.opts] {
                  return sim::make_campaign_strategy(campaign, opts);
                };
              } else {
                t.make_strategy = [scenario = t.scenario, opts = t.opts] {
                  return sim::make_strategy(scenario, opts);
                };
              }
            }
            trials.push_back(std::move(t));
          }
        }
      }
    }
  }
  return trials;
}

namespace {

/// A finished trial parked until every earlier trial has been delivered.
struct PendingTrial {
  std::vector<StepRecord> steps;
  ScenarioResult result;
};

}  // namespace

void Executor::run(std::vector<TrialSpec> trials) {
  const std::size_t total = trials.size();
  for (std::size_t i = 0; i < total; ++i) trials[i].index = i;
  if (total == 0) return;

  std::size_t jobs = opts_.jobs;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  jobs = std::min(jobs, total);
  bool buffer_steps = false;
  for (const MetricSink* s : sinks_) buffer_steps |= s->wants_steps();
  // Reorder window: a worker may only start trial i once i falls within
  // `window` of the next trial to deliver, so at most `window` step buffers
  // are ever alive — memory bounded by jobs, not by the trial count.
  const std::size_t window = 2 * jobs;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next_to_run = 0;
  std::size_t next_to_emit = 0;
  bool emitting = false;
  std::map<std::size_t, PendingTrial> pending;

  auto worker = [&] {
    for (;;) {
      std::size_t i;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return next_to_run >= total ||
                 next_to_run < next_to_emit + window;
        });
        if (next_to_run >= total) return;
        i = next_to_run++;
      }

      const TrialSpec& t = trials[i];
      auto overlay = t.make_overlay();
      DEX_ASSERT_MSG(overlay != nullptr, "trial overlay factory returned null");
      auto strategy = t.make_strategy();
      DEX_ASSERT_MSG(strategy != nullptr,
                     "trial strategy factory returned null");

      // The runner's kernel is reused unchanged; the trace never
      // materializes — steps stream through the observer into a per-trial
      // buffer that is dropped as soon as the sinks have seen it.
      ScenarioSpec spec = t.spec;
      spec.record_trace = false;
      ScenarioRunner runner(*overlay, *strategy, spec);
      PendingTrial done;
      if (buffer_steps) {
        done.steps.reserve(spec.steps);
        runner.set_observer([&done](const StepRecord& rec, HealingOverlay&) {
          done.steps.push_back(rec);
        });
      }
      done.result = runner.run();

      {
        std::unique_lock<std::mutex> lock(mu);
        pending.emplace(i, std::move(done));
        if (emitting) {
          // Another worker owns the drain; it re-checks `pending` before
          // releasing the flag, so this trial cannot be stranded.
          cv.notify_all();
          continue;
        }
        // Claim the single-emitter role and drain the ready prefix. Sink
        // calls (possibly slow file I/O) happen with the lock dropped —
        // other workers keep running trials — while the flag keeps
        // delivery serialized and in trial-index order.
        emitting = true;
        for (auto it = pending.find(next_to_emit); it != pending.end();
             it = pending.find(next_to_emit)) {
          PendingTrial item = std::move(it->second);
          pending.erase(it);
          const std::size_t idx = next_to_emit;
          lock.unlock();
          const TrialInfo info = trials[idx].info();
          for (auto* sink : sinks_) sink->on_trial_start(info);
          for (const auto& rec : item.steps) {
            for (auto* sink : sinks_) {
              if (sink->wants_steps()) sink->on_step(info, rec);
            }
          }
          for (auto* sink : sinks_) sink->on_trial_end(info, item.result);
          lock.lock();
          ++next_to_emit;
          cv.notify_all();
        }
        emitting = false;
        cv.notify_all();
      }
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  DEX_ASSERT(next_to_emit == total && pending.empty());
}

}  // namespace dex::sim
