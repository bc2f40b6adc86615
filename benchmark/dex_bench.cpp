// dex_bench — one benchmark workload, timed from outside the library.
//
// Usage: dex_bench --workload NAME --seed S --seconds T [--trace SPANS]
//
// Repeats fixed-size trials of the named workload until T seconds are
// spent, the first one an untimed warm-up. Every trial of a run uses the
// same seed, so all of them do identical work and must print identical
// summaries. Prints one JSON object with each trial's raw timings and
// summary; benchmark/run.py turns those into metrics and checks them.
//
// Untraced trials drive sim::ScenarioRunner::run() untouched; a step
// observer only timestamps finalized steps. With --trace, every second
// trial after the warm-up runs through the TimedStrategy/TimedOverlay
// decorators below plus
// the runner's own phase buckets (spec.time_phases), and the spans they
// record are written to SPANS as JSONL when the program ends.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metrics/emit.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

using namespace dex;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* backend;
  const char* strategy;
  std::size_t n0;
  /// Everything but the seed; steps is the length of one trial.
  sim::ScenarioSpec spec;
};

sim::ScenarioSpec churn_spec(std::size_t steps, std::size_t batch_size) {
  sim::ScenarioSpec spec;
  spec.steps = steps;
  spec.batch_size = batch_size;
  return spec;
}

/// Why each workload exists is recorded in BENCHMARK.json and
/// benchmark/README.md. No operation may fail in a workload. So the event
/// workloads run without message loss, and event-racing with a fixed latency:
/// those are the regimes in which no KV operation can meet a home that died
/// after the store last synced. And serve-hotspot's queues are deep enough
/// that none of seeds 1-40 sheds an op.
std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;

  Workload kv{"kv-zipf", "dex-worstcase", "churn", 31623, churn_spec(40, 8)};
  kv.spec.traffic.workload = "zipf";
  kv.spec.traffic.ops_per_step = 64;
  kv.spec.traffic.keyspace = 8192;
  kv.spec.traffic.read_fraction = 0.75;
  ws.push_back(kv);

  ws.push_back(Workload{"churn-burst", "dex-amortized", "burst", 100000,
                        churn_spec(40, 32)});

  Workload race{"event-racing", "dex-amortized", "churn", 16384,
                churn_spec(400, 16)};
  race.spec.traffic.workload = "uniform";
  race.spec.traffic.ops_per_step = 4;
  race.spec.traffic.keyspace = 8192;
  race.spec.event.enabled = true;
  race.spec.event.latency = *sim::LatencyModel::parse("fixed:8");
  race.spec.event.period = 1;
  ws.push_back(race);

  Workload serve{"serve-hotspot", "dex-amortized", "churn", 10000,
                 churn_spec(150, 8)};
  serve.spec.traffic.workload = "hotspot";
  serve.spec.traffic.ops_per_step = 64;
  serve.spec.traffic.keyspace = 8192;
  serve.spec.traffic.read_fraction = 0.5;
  serve.spec.event.enabled = true;
  serve.spec.event.latency = *sim::LatencyModel::parse("fixed:0");
  // The clients need about 32 ticks to serve a step's 64 ops, so churn keeps
  // arriving for as long as they serve instead of ending in the first tenth.
  serve.spec.event.period = 32;
  serve.spec.serve.enabled = true;
  serve.spec.serve.clients = 16;
  serve.spec.serve.think_ticks = 0;
  serve.spec.serve.queue_depth = 32;
  serve.spec.serve.service_ticks = 2;
  serve.spec.serve.op_timeout = 64;
  ws.push_back(serve);

  return ws;
}

// --------------------------------------------------------------- tracing

/// Spans kept in memory and written as JSONL when the program ends.
class SpanLog {
 public:
  void add(const char* name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, start, end});
  }

  [[nodiscard]] bool write(const std::string& path,
                           Clock::time_point origin) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"start_us\": "
          << metrics::format_double(1e6 * seconds_between(origin, s.start))
          << ", \"end_us\": "
          << metrics::format_double(1e6 * seconds_between(origin, s.end))
          << ", \"seq\": " << i << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// Busy time and call count of one layer boundary.
struct CallTotals {
  double us = 0.0;
  std::uint64_t calls = 0;
};

/// What the decorators measure in one traced trial.
struct LayerTotals {
  CallTotals draw;   ///< Strategy::next / next_batch
  CallTotals apply;  ///< HealingOverlay::apply
  CallTotals route;  ///< HealingOverlay::route
  CallTotals drain;  ///< HealingOverlay::drain_view_delta
  std::uint64_t live_ports = 0;  ///< CSR rows enumerated
};

/// Times one call: adds its duration to `totals` and a span to `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, CallTotals& totals)
      : log_(log), name_(name), totals_(totals), start_(Clock::now()) {}
  ~ScopedSpan() {
    const auto end = Clock::now();
    totals_.us += 1e6 * seconds_between(start_, end);
    ++totals_.calls;
    log_.add(name_, start_, end);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  CallTotals& totals_;
  Clock::time_point start_;
};

/// Forwards to a strategy and times its draws. The runner calls the strategy
/// before its churn_us timer starts, so this is the only place the draw is
/// measured.
class TimedStrategy final : public adversary::Strategy {
 public:
  TimedStrategy(adversary::Strategy& inner, LayerTotals& totals, SpanLog& log)
      : inner_(inner), totals_(totals), log_(log) {}

  adversary::ChurnAction next(const adversary::AdversaryView& view,
                              support::Rng& rng, std::size_t min_n,
                              std::size_t max_n) override {
    const ScopedSpan span(log_, "adversary.draw", totals_.draw);
    return inner_.next(view, rng, min_n, max_n);
  }

  sim::ChurnBatch next_batch(const adversary::AdversaryView& view,
                             support::Rng& rng, std::size_t min_n,
                             std::size_t max_n,
                             std::size_t batch_size) override {
    const ScopedSpan span(log_, "adversary.draw", totals_.draw);
    return inner_.next_batch(view, rng, min_n, max_n, batch_size);
  }

 private:
  adversary::Strategy& inner_;
  LayerTotals& totals_;
  SpanLog& log_;
};

/// Forwards every HealingOverlay virtual to the wrapped overlay; times
/// apply, route and drain_view_delta and counts live_ports rows.
class TimedOverlay final : public sim::HealingOverlay {
 public:
  TimedOverlay(sim::HealingOverlay& inner, LayerTotals& totals, SpanLog& log)
      : inner_(inner), totals_(totals), log_(log) {
    // The runner lends its maintained CSR to the overlay it drives, which is
    // this decorator. Hand it on: without it DEX's batch preflight falls
    // back to snapshot copies and the traced run times a slower program.
    inner_.set_live_view_provider([this] { return live_view(); });
  }
  ~TimedOverlay() override { inner_.set_live_view_provider({}); }
  TimedOverlay(const TimedOverlay&) = delete;
  TimedOverlay& operator=(const TimedOverlay&) = delete;

  [[nodiscard]] const char* name() const override { return inner_.name(); }

  sim::BatchOutcome apply(const sim::ChurnBatch& batch) override {
    const ScopedSpan span(log_, "overlay.apply", totals_.apply);
    return inner_.apply(batch);
  }
  graph::NodeId insert(graph::NodeId attach_to) override {
    return inner_.insert(attach_to);
  }
  void remove(graph::NodeId victim) override { inner_.remove(victim); }
  [[nodiscard]] std::size_t min_population() const override {
    return inner_.min_population();
  }

  [[nodiscard]] std::size_t n() const override { return inner_.n(); }
  [[nodiscard]] bool alive(graph::NodeId u) const override {
    return inner_.alive(u);
  }
  [[nodiscard]] std::vector<graph::NodeId> alive_nodes() const override {
    return inner_.alive_nodes();
  }
  [[nodiscard]] std::vector<bool> alive_mask() const override {
    return inner_.alive_mask();
  }
  [[nodiscard]] graph::Multigraph snapshot() const override {
    return inner_.snapshot();
  }
  [[nodiscard]] std::size_t load(graph::NodeId u) const override {
    return inner_.load(u);
  }
  [[nodiscard]] std::size_t max_degree() const override {
    return inner_.max_degree();
  }
  [[nodiscard]] graph::NodeId special_node() const override {
    return inner_.special_node();
  }

  [[nodiscard]] std::vector<graph::NodeId> route(
      graph::NodeId src, graph::NodeId dst,
      const graph::CsrView& live) const override {
    const ScopedSpan span(log_, "route", totals_.route);
    return inner_.route(src, dst, live);
  }
  [[nodiscard]] bool route_is_shortest() const override {
    return inner_.route_is_shortest();
  }

  [[nodiscard]] const sim::CostMeter& meter() const override {
    return inner_.meter();
  }
  [[nodiscard]] sim::StepCost last_step_cost() const override {
    return inner_.last_step_cost();
  }

  [[nodiscard]] bool live_ports(graph::NodeId u,
                                std::vector<graph::NodeId>& out) const override {
    ++totals_.live_ports;
    return inner_.live_ports(u, out);
  }
  [[nodiscard]] bool drain_view_delta(graph::ViewDelta& out) const override {
    const ScopedSpan span(log_, "view.drain", totals_.drain);
    return inner_.drain_view_delta(out);
  }
  void set_intra_jobs(unsigned jobs) override { inner_.set_intra_jobs(jobs); }

  [[nodiscard]] bool has_removal_oracle() const override {
    return inner_.has_removal_oracle();
  }
  [[nodiscard]] graph::Multigraph snapshot_without(
      graph::NodeId victim) const override {
    return inner_.snapshot_without(victim);
  }
  void check_invariants() const override { inner_.check_invariants(); }

 private:
  sim::HealingOverlay& inner_;
  LayerTotals& totals_;
  SpanLog& log_;
};

// ----------------------------------------------------------------- trials

struct Trial {
  /// The first trial of a process warms its heap and page tables; it is
  /// checked like the others but left out of every timing.
  bool warmup = false;
  bool traced = false;
  /// make_overlay through the first finalized step (first CSR build,
  /// journal install, first key placement).
  double setup_s = 0.0;
  /// ScenarioRunner::run, call to return.
  double run_s = 0.0;
  /// First to last finalized step.
  double measured_s = 0.0;
  std::size_t records = 0;
  /// Wall time between consecutive finalized steps.
  std::vector<double> step_ms;
  /// Churn events and offered ops (served or shed) finalized after the
  /// first step.
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  /// Traced trials only: the decorators' totals and the runner's buckets.
  LayerTotals layers;
  double churn_us = 0.0;
  double view_us = 0.0;
  double traffic_us = 0.0;
  std::string summary;
};

Trial run_trial(const Workload& w, std::uint64_t seed, bool warmup,
                bool traced, SpanLog& log) {
  Trial out;
  out.warmup = warmup;
  out.traced = traced;
  sim::ScenarioSpec spec = w.spec;
  spec.seed = seed;
  spec.record_trace = false;
  spec.time_phases = traced;

  const auto begin = Clock::now();
  auto overlay = sim::make_overlay(w.backend, w.n0, sim::overlay_seed(seed));
  auto strategy = sim::make_strategy(w.strategy);
  std::optional<TimedOverlay> timed_overlay;
  std::optional<TimedStrategy> timed_strategy;
  sim::HealingOverlay* driven_overlay = overlay.get();
  adversary::Strategy* driven_strategy = strategy.get();
  if (traced) {
    driven_overlay = &timed_overlay.emplace(*overlay, out.layers, log);
    driven_strategy = &timed_strategy.emplace(*strategy, out.layers, log);
  }

  std::vector<Clock::time_point> marks;
  marks.reserve(spec.steps);
  sim::ScenarioRunner runner(*driven_overlay, *driven_strategy, spec);
  runner.set_observer([&](const sim::StepRecord& rec, sim::HealingOverlay&) {
    const auto now = Clock::now();
    if (!marks.empty()) {
      out.step_ms.push_back(1e3 * seconds_between(marks.back(), now));
      out.events += rec.batch_inserts + rec.batch_deletes;
      out.ops += rec.ops + rec.shed;
      if (traced) log.add("step", marks.back(), now);
    }
    marks.push_back(now);
  });
  const auto run_begin = Clock::now();
  const sim::ScenarioResult res = runner.run();
  const auto end = Clock::now();

  out.records = marks.size();
  if (!marks.empty()) {
    out.setup_s = seconds_between(begin, marks.front());
    out.measured_s = seconds_between(marks.front(), marks.back());
    if (traced) log.add("setup", begin, marks.front());
  }
  out.run_s = seconds_between(run_begin, end);
  out.churn_us = res.churn_us;
  out.view_us = res.view_us;
  out.traffic_us = res.traffic_us;
  out.summary = sim::summary_json(res);
  return out;
}

// ----------------------------------------------------------------- output

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string calls_json(const CallTotals& c) {
  return "{\"us\": " + metrics::format_double(c.us) +
         ", \"calls\": " + std::to_string(c.calls) + "}";
}

std::string trial_json(const Trial& t) {
  std::string s = "{\"warmup\": ";
  s += t.warmup ? "true" : "false";
  s += ", \"traced\": ";
  s += t.traced ? "true" : "false";
  s += ", \"setup_s\": " + metrics::format_double(t.setup_s);
  s += ", \"run_s\": " + metrics::format_double(t.run_s);
  s += ", \"measured_s\": " + metrics::format_double(t.measured_s);
  s += ", \"records\": " + std::to_string(t.records);
  s += ", \"events\": " + std::to_string(t.events);
  s += ", \"ops\": " + std::to_string(t.ops);
  s += ", \"step_ms\": [";
  for (std::size_t i = 0; i < t.step_ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += metrics::format_double(t.step_ms[i]);
  }
  s += "]";
  if (t.traced) {
    const LayerTotals& l = t.layers;
    s += ", \"layers\": {\"draw\": " + calls_json(l.draw) +
         ", \"apply\": " + calls_json(l.apply) +
         ", \"route\": " + calls_json(l.route) +
         ", \"drain\": " + calls_json(l.drain) +
         ", \"live_ports\": " + std::to_string(l.live_ports) +
         ", \"churn_us\": " + metrics::format_double(t.churn_us) +
         ", \"view_us\": " + metrics::format_double(t.view_us) +
         ", \"traffic_us\": " + metrics::format_double(t.traffic_us) + "}";
  }
  s += ", \"summary\": " + quoted(t.summary) + "}";
  return s;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: dex_bench --workload NAME --seed S --seconds T "
               "[--trace SPANS]\nworkloads:");
  for (const auto& w : make_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(seconds > 0.0)) return usage();
  const auto workloads = make_workloads();
  const Workload* w = nullptr;
  for (const auto& candidate : workloads) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (w == nullptr) return usage();

  // An untraced warm-up trial comes first. Then trials repeat until the next
  // one would overrun the budget. A traced run alternates untraced and traced
  // trials so the overhead is measured on the same machine state; either way
  // at least two untraced trials are measured.
  const bool tracing = !spans_path.empty();
  const std::size_t min_trials = tracing ? 5 : 3;
  SpanLog log;
  std::vector<Trial> trials;
  const auto start = Clock::now();
  for (;;) {
    const bool warmup = trials.empty();
    const bool traced = tracing && trials.size() % 2 == 0 && !warmup;
    trials.push_back(run_trial(*w, seed, warmup, traced, log));
    const double spent = seconds_between(start, Clock::now());
    const double per_trial = spent / static_cast<double>(trials.size());
    if (trials.size() >= min_trials && spent + per_trial > seconds) break;
  }

  if (tracing && !log.write(spans_path, origin)) {
    std::fprintf(stderr, "dex_bench: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  std::string json = "{\"workload\": " + quoted(w->name);
  json += ", \"seed\": " + std::to_string(seed);
  json += ", \"compiler\": " + quoted(compiler());
  json += ", \"build_type\": " + quoted(DEX_BENCH_BUILD_TYPE);
  json += ", \"peak_rss_mb\": " +
          metrics::format_double(static_cast<double>(usage_now.ru_maxrss) /
                                 1024.0);
  json += ", \"trials\": [";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (i > 0) json += ", ";
    json += trial_json(trials[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}
