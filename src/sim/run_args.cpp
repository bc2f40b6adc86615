#include "sim/run_args.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/overlay.h"
#include "sim/scenario.h"
#include "support/parse.h"

namespace dex::sim {
namespace {

using support::parse_double;
using support::parse_u64;

/// Accepts both `--name=value` and `--name value`: when the argument is
/// exactly `--name`, the value is consumed from the next slot (advancing i).
bool parse_flag(const std::vector<std::string>& args, std::size_t& i,
                const char* name, std::string& out) {
  const std::string& arg = args[i];
  const std::string flag = std::string("--") + name;
  if (arg == flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    out = args[++i];
    return true;
  }
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

/// Splits a comma list; "all" (backends axis) expands via the registry.
std::vector<std::string> split_csv(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t comma = v.find(',', start);
    const std::size_t end = comma == std::string::npos ? v.size() : comma;
    if (end > start) out.push_back(v.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty list: '" + v + "'");
  return out;
}

/// A comma list of non-negative integers.
std::vector<std::uint64_t> split_u64(const std::string& v) {
  std::vector<std::uint64_t> out;
  for (const auto& s : split_csv(v)) out.push_back(parse_u64(s));
  return out;
}

/// "<kind> flags (--a/--b) need <mode>" when one of `knobs` was given but
/// their mode is off.
std::optional<std::string> knob_gate(const std::set<std::string>& given,
                                     const char* kind,
                                     const std::vector<std::string>& knobs,
                                     bool mode_on, const char* mode) {
  if (mode_on || std::none_of(knobs.begin(), knobs.end(),
                              [&](const auto& k) { return given.count(k); })) {
    return std::nullopt;
  }
  std::string list;
  for (const auto& k : knobs) list += (list.empty() ? "--" : "/--") + k;
  return std::string(kind) + " flags (" + list + ") need " + mode;
}

RunArgs fail(std::string message) {
  RunArgs run;
  run.error = std::move(message);
  return run;
}

}  // namespace

RunArgs parse_run_args(const std::vector<std::string>& args) {
  // One declarative plan covers single runs and sweeps: a single run is a
  // one-trial grid.
  RunArgs run;
  ExperimentPlan& plan = run.plan;
  ScenarioSpec& spec = plan.base;
  std::optional<std::string> campaign;  // --campaign as given; parsed below
  std::set<std::string> given;          // valued flags seen, by name
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      std::string v;
      const auto flag = [&](const char* name) {
        if (!parse_flag(args, i, name, v)) return false;
        given.insert(name);
        return true;
      };
      if (flag("backend")) {
        plan.backends = split_csv(v);
      } else if (flag("scenario")) {
        plan.scenarios = split_csv(v);
      } else if (flag("campaign")) {
        campaign = v;
      } else if (flag("n0")) {
        const auto n0s = split_u64(v);
        plan.populations.assign(n0s.begin(), n0s.end());
      } else if (flag("seed")) {
        plan.seeds = split_u64(v);
      } else if (flag("batch-size")) {
        const auto sizes = split_u64(v);
        plan.batch_sizes.assign(sizes.begin(), sizes.end());
      } else if (flag("steps")) {
        spec.steps = parse_u64(v);
      } else if (flag("min-n")) {
        spec.min_n = parse_u64(v);
      } else if (flag("max-n")) {
        spec.max_n = parse_u64(v);
      } else if (flag("warmup")) {
        spec.warmup_steps = parse_u64(v);
      } else if (flag("insert-prob")) {
        plan.opts.insert_prob = parse_double(v);
      } else if (flag("gap-every")) {
        spec.gap_every = parse_u64(v);
      } else if (flag("burst")) {
        spec.burst_every = parse_u64(v);
      } else if (flag("workload")) {
        spec.traffic.workload = v;
      } else if (flag("ops-per-step")) {
        spec.traffic.ops_per_step = parse_u64(v);
      } else if (flag("keys")) {
        spec.traffic.keyspace = parse_u64(v);
      } else if (flag("zipf")) {
        spec.traffic.zipf_s = parse_double(v);
      } else if (flag("read-frac")) {
        spec.traffic.read_fraction = parse_double(v);
      } else if (flag("engine")) {
        if (v != "sync" && v != "event") {
          throw std::invalid_argument("--engine must be sync or event, got '" +
                                      v + "'");
        }
        spec.event.enabled = v == "event";
      } else if (flag("latency")) {
        const auto model = LatencyModel::parse(v);
        if (!model) {
          throw std::invalid_argument(
              "--latency must be fixed:T, uniform:A,B or exp:MEAN, got '" + v +
              "'");
        }
        spec.event.latency = *model;
      } else if (flag("loss")) {
        spec.event.loss_rate = parse_double(v);
      } else if (flag("stragglers")) {
        spec.event.straggler_fraction = parse_double(v);
      } else if (flag("straggler-factor")) {
        spec.event.straggler_factor = parse_u64(v);
      } else if (flag("period")) {
        spec.event.period = parse_u64(v);
      } else if (flag("clients")) {
        spec.serve.clients = parse_u64(v);
      } else if (flag("think")) {
        spec.serve.think_ticks = parse_u64(v);
      } else if (flag("queue-depth")) {
        spec.serve.queue_depth = parse_u64(v);
      } else if (flag("service")) {
        spec.serve.service_ticks = parse_u64(v);
      } else if (flag("op-timeout")) {
        spec.serve.op_timeout = parse_u64(v);
      } else if (flag("jobs")) {
        run.jobs = parse_u64(v);
      } else if (flag("csv")) {
        run.csv_path = v;
      } else if (flag("json")) {
        run.json_path = v;
      } else if (arg == "--serve") {
        spec.serve.enabled = true;
      } else if (arg == "--sweep") {
        run.sweep = true;
      } else if (arg == "--no-trace") {
        run.trace = false;
      } else if (arg == "--help" || arg == "-h") {
        run.help = true;
        return run;
      } else {
        RunArgs unknown = fail("unknown flag '" + arg + "'");
        unknown.help = true;
        return unknown;
      }
    }
  } catch (const std::exception& e) {
    return fail(std::string("bad flag value: ") + e.what());
  }

  // "all" expands from the registry; only meaningful as a sweep axis.
  if (plan.backends.size() == 1 && plan.backends[0] == "all") {
    plan.backends = known_overlays();
  }
  if (!run.sweep && plan.trial_count() > 1) {
    return fail("comma-listed axes expand to a grid only with --sweep");
  }
  if (!run.sweep && given.count("jobs")) {
    return fail("--jobs needs --sweep: a single run uses one thread");
  }
  if (campaign) {
    // The campaign's phases name their own strategies, so a scenario axis
    // next to it would be dead weight at best and contradictory at worst.
    if (given.count("scenario")) {
      return fail("--campaign replaces --scenario; give one or the other");
    }
    // Parsed once, here: replay traces are read now, and every trial gets
    // the parsed spec.
    std::string campaign_err;
    spec.campaign = parse_campaign_spec(*campaign, &campaign_err);
    if (!spec.campaign) return fail("bad --campaign: " + campaign_err);
  }
  for (const auto& problem :
       {knob_gate(given, "traffic", kTrafficKnobs, spec.traffic.enabled(),
                  "--workload"),
        knob_gate(given, "event", kEventKnobs, spec.event.enabled,
                  "--engine event"),
        knob_gate(given, "serve", kServeKnobs, spec.serve.enabled,
                  "--serve")}) {
    if (problem) return fail(*problem);
  }
  if (auto problem = plan.validate()) return fail(std::move(*problem));

  // One flag controls churn bias everywhere it applies.
  spec.warmup_insert_prob = plan.opts.insert_prob;
  // The per-step degree scan only pays off when the trace is emitted.
  spec.measure_degree = run.trace;
  // Fold the strategy knob into the label so the archived summary records
  // the full workload, not just its name.
  // A campaign supersedes the scenario axis: the unused default scenario
  // name must not leak into the archived label (the campaign string itself
  // is echoed as the summary's `campaign` field).
  if (spec.campaign) spec.label = "campaign";
  const double insert_prob = plan.opts.insert_prob;
  plan.customize = [insert_prob](TrialSpec& t) {
    if (!t.spec.campaign &&
        (t.scenario == "churn" || t.scenario == "burst")) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "(insert_prob=%g)", insert_prob);
      t.spec.label += buf;
    }
  };
  return run;
}

}  // namespace dex::sim
