// Simulator CLI: any backends x any adversaries x any sizes from one
// binary, driven by the declarative ExperimentPlan + parallel Executor
// (sim/experiment.h). Per-step traces stream as CSV (stdout or --csv FILE)
// and per-trial summaries as JSON lines (stderr or --json FILE) through
// MetricSinks, so memory stays flat however long the run:
//
//   $ ./dex_sim_cli --backend=flood --scenario=churn --n0=64 --steps=200
//   $ ./dex_sim_cli --backend dex-worstcase --scenario churn --batch-size 16
//   $ ./dex_sim_cli --sweep --backend all --scenario churn,burst
//        --seed 1,2,3,4 --jobs 8 --no-trace --json BENCH_sweep.json
//
//     Flags (both --flag=VALUE and --flag VALUE forms work):
//            --backend=NAMES  (dex-amortized, dex-worstcase, flood, lawsiu,
//                              randomflip, xheal; with --sweep a comma list
//                              or "all")
//            --scenario=NAMES (churn, insert-only, delete-only, oscillate,
//                              targeted, load-attack, spectral,
//                              greedy-spectral, burst, flash-crowd,
//                              mass-failure, oracle-bust, chord-cut,
//                              spectral-batch; comma list with --sweep)
//            --campaign=SPEC  phased adversary campaign replacing the single
//                             --scenario strategy: ;-separated phases of
//                             strategy[:BEGIN-END][,rate=R][,load=L]
//                             [,diurnal=P], plus mix(a*2+b) bodies and
//                             replay(trace.csv) (adversary/campaign.h)
//            --n0=N --seed=S  (comma lists with --sweep: grid axes)
//            --batch-size=B   events per step (§5 batches; default 1;
//                              comma list with --sweep)
//            --steps=N --min-n=N --max-n=N --warmup=N
//            --insert-prob=P --gap-every=K --no-trace
//            --burst=K        burst batch_size every K steps, single events
//                             between (default 0 = batch every step)
//            --workload=NAME  serve key-value traffic between churn steps
//                             (uniform, zipf, hotspot); requests route via
//                             p-cycle paths on DEX, BFS on the baselines
//            --ops-per-step=N --keys=K --zipf=S --read-frac=P
//                             traffic knobs (requests/step, keyspace, zipf
//                             exponent, read share)
//            --engine=NAME    sync (default) or event: both run the one
//                             deterministic discrete-event core (sim/event/);
//                             sync pins it to lockstep rounds (latency
//                             fixed:0, loss 0, period 1), event takes the
//                             latency/loss/straggler knobs below
//            --latency=MODEL  per-message latency: fixed:T, uniform:A,B,
//                             exp:MEAN (virtual ticks; event engine only)
//            --loss=P --stragglers=F --straggler-factor=K --period=T
//                             i.i.d. delivery loss, straggling-node
//                             fraction and multiplier, ticks between
//                             batch injections (event engine only)
//            --sweep          expand the comma-list axes into a full grid
//                             (backends x scenarios x n0s x batch sizes x
//                             seeds) and prepend a trial column/field
//            --jobs=J         worker threads for the sweep (0 = all cores);
//                             output is byte-identical for every J
//            --csv=FILE --json=FILE   redirect the two streams to files
//
// Flags are parsed and gated here (comma lists need --sweep, knobs need
// their mode); the plan's contents are checked by ExperimentPlan::validate,
// the same check scenario_fuzzer runs on its case lines. Malformed input
// exits 2 with a one-line message. For an invariant audit after a run,
// replay the case through `scenario_fuzzer --case`.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "sim/workload.h"
#include "support/parse.h"

namespace {

using dex::support::parse_double;
using dex::support::parse_u64;

/// Accepts both `--name=value` and `--name value`: when arg is exactly
/// `--name`, the value is consumed from the next argv slot (advancing i).
bool parse_flag(int argc, char** argv, int& i, const char* name,
                std::string& out) {
  const std::string arg = argv[i];
  const std::string flag = std::string("--") + name;
  if (arg == flag) {
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for " + flag);
    out = argv[++i];
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

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dex_sim_cli [--backend=NAMES] [--scenario=NAMES] [--n0=N,..]\n"
      "                   [--campaign=SPEC]\n"
      "                   [--steps=N] [--seed=S,..] [--min-n=N] [--max-n=N]\n"
      "                   [--warmup=N] [--insert-prob=P] [--gap-every=K]\n"
      "                   [--batch-size=B,..] [--burst=K] [--no-trace]\n"
      "                   [--workload=NAME] [--ops-per-step=N] [--keys=K]\n"
      "                   [--zipf=S] [--read-frac=P]\n"
      "                   [--engine=sync|event] [--latency=MODEL] [--loss=P]\n"
      "                   [--stragglers=F] [--straggler-factor=K]\n"
      "                   [--period=T]\n"
      "                   [--serve] [--clients=C] [--think=T]\n"
      "                   [--queue-depth=D] [--service=T] [--op-timeout=T]\n"
      "                   [--sweep] [--jobs=J]\n"
      "                   [--csv=FILE] [--json=FILE]\n"
      "\n"
      "Every flag accepts both the =VALUE form and a following VALUE arg.\n"
      "backends:  %s\n"
      "scenarios: %s\n"
      "workloads: %s\n"
      "\n"
      "--batch-size drives B churn events per step through the batch-first\n"
      "apply() surface (DEX heals feasible batches with parallel walks,\n"
      "Cor. 2); --burst=K bursts only every K-th step. The per-step CSV\n"
      "trace streams to stdout (or --csv FILE) and one JSON summary per\n"
      "trial to stderr (or --json FILE). Same --seed => same adversary\n"
      "decision sequence across backends.\n"
      "\n"
      "--campaign runs a *phased* adversary instead of one --scenario\n"
      "strategy: ';'-separated phases of NAME[:BEGIN-END][,rate=R][,load=L]\n"
      "[,diurnal=P] — half-open step ranges (omitted = chained after the\n"
      "previous phase; END omitted = open), rate in [0,1] thins the phase's\n"
      "batch budget, load scales the traffic stream while the phase is\n"
      "active (diurnal=P makes it the peak of a P-step triangle wave).\n"
      "Bodies can also be mix(a*2+b*1) — per-step weighted draw — or\n"
      "replay(trace.csv), replaying a recorded churn trace's op/target\n"
      "columns. Example:\n"
      "  --campaign 'flash-crowd:0-50;mass-failure:50-60,rate=0.3;burst:60-'\n"
      "Steps covered by no phase are quiet (no churn, unit load). The\n"
      "campaign string is archived in the summary's campaign field, and all\n"
      "byte-determinism contract (--jobs) holds under campaigns\n"
      "unchanged.\n"
      "\n"
      "--workload serves key-value traffic through every overlay between\n"
      "churn steps (requests route via p-cycle paths on DEX, BFS on the\n"
      "baselines): --ops-per-step requests per step over --keys distinct\n"
      "keys, --zipf exponent for the zipf/hotspot rank distribution,\n"
      "--read-frac read share. The trace gains ops/op_hops/opt_hops/\n"
      "failed_lookups/stretch/moved_keys/rehash_messages columns and the\n"
      "summary their totals.\n"
      "\n"
      "Every trial runs on one deterministic discrete-event core: churn\n"
      "constituents, walk settlement and KV requests are timestamped\n"
      "deliveries. --engine sync (the default) is that core at latency\n"
      "fixed:0, loss 0, period 1 — exactly lockstep rounds, not a second\n"
      "loop. --engine event opens the regime up: --latency (fixed:T,\n"
      "uniform:A,B or exp:MEAN ticks), i.i.d. --loss (lost deliveries\n"
      "retransmit and count in the dropped column), --stragglers fraction\n"
      "of nodes at --straggler-factor x latency, and --period ticks between\n"
      "batch injections — latency above the period makes healing race\n"
      "churn. The vtime/in_flight/dropped columns fill in, the summary\n"
      "archives the regime, and every --jobs value stays byte-identical.\n"
      "\n"
      "--serve (event engine + workload only) replaces the per-step request\n"
      "batches with the concurrent serving front-end: --clients closed-loop\n"
      "clients (issue -> routed request -> bounded per-home queue -> service\n"
      "-> routed response -> --think ticks -> reissue) share the same total\n"
      "op budget (steps x ops-per-step); a request arriving at a queue\n"
      "already --queue-depth deep is shed, churn-moved keys become rehash\n"
      "jobs occupying the same queues, --service ticks per op, and\n"
      "completions slower than --op-timeout ticks count as timeouts. The\n"
      "trace gains shed/timeouts/qdepth columns and the summary a serve\n"
      "block with p50/p99/p999 latency and throughput.\n"
      "\n"
      "--sweep expands comma-listed --backend/--scenario/--n0/--batch-size/\n"
      "--seed axes into a grid (--backend all = every backend) and runs the\n"
      "trials on --jobs threads; rows gain a leading trial column and the\n"
      "output is byte-identical for every --jobs value.\n",
      dex::sim::overlay_names(), dex::sim::strategy_names(),
      dex::sim::workload_names());
}

}  // namespace

int main(int argc, char** argv) {
  // One declarative plan covers single runs and sweeps: a single run is a
  // one-trial grid. Every trial owns its overlay/strategy/RNG (spec.seed
  // drives the adversary; the overlay gets a salted derivation — §2 hides
  // only the algorithm's future flips), so the Executor can run them on any
  // number of threads with byte-identical output.
  dex::sim::ExperimentPlan plan;
  plan.base.steps = 256;
  bool sweep = false;
  bool trace = true;
  std::size_t jobs = 1;
  std::string csv_path;
  std::string json_path;
  std::string campaign;  // --campaign as given; parsed below
  bool traffic_knob = false;
  bool event_knob = false;
  bool serve_knob = false;
  bool scenario_knob = false;
  auto& spec = plan.base;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (parse_flag(argc, argv, i, "backend", v)) {
        plan.backends = split_csv(v);
      } else if (parse_flag(argc, argv, i, "scenario", v)) {
        plan.scenarios = split_csv(v);
        scenario_knob = true;
      } else if (parse_flag(argc, argv, i, "campaign", v)) {
        campaign = v;
      } else if (parse_flag(argc, argv, i, "n0", v)) {
        plan.populations.clear();
        for (const auto& s : split_csv(v)) {
          plan.populations.push_back(parse_u64(s));
        }
      } else if (parse_flag(argc, argv, i, "seed", v)) {
        plan.seeds.clear();
        for (const auto& s : split_csv(v)) plan.seeds.push_back(parse_u64(s));
      } else if (parse_flag(argc, argv, i, "batch-size", v)) {
        plan.batch_sizes.clear();
        for (const auto& s : split_csv(v)) {
          plan.batch_sizes.push_back(parse_u64(s));
        }
      } else if (parse_flag(argc, argv, i, "steps", v)) {
        spec.steps = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "min-n", v)) {
        spec.min_n = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "max-n", v)) {
        spec.max_n = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "warmup", v)) {
        spec.warmup_steps = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "insert-prob", v)) {
        plan.opts.insert_prob = parse_double(v);
      } else if (parse_flag(argc, argv, i, "gap-every", v)) {
        spec.gap_every = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "burst", v)) {
        spec.burst_every = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "workload", v)) {
        spec.traffic.workload = v;
      } else if (parse_flag(argc, argv, i, "ops-per-step", v)) {
        spec.traffic.ops_per_step = parse_u64(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "keys", v)) {
        spec.traffic.keyspace = parse_u64(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "zipf", v)) {
        spec.traffic.zipf_s = parse_double(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "read-frac", v)) {
        spec.traffic.read_fraction = parse_double(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "engine", v)) {
        if (v != "sync" && v != "event") {
          throw std::invalid_argument("--engine must be sync or event, got '" +
                                      v + "'");
        }
        spec.event.enabled = v == "event";
      } else if (parse_flag(argc, argv, i, "latency", v)) {
        const auto model = dex::sim::LatencyModel::parse(v);
        if (!model) {
          throw std::invalid_argument(
              "--latency must be fixed:T, uniform:A,B or exp:MEAN, got '" + v +
              "'");
        }
        spec.event.latency = *model;
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "loss", v)) {
        spec.event.loss_rate = parse_double(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "stragglers", v)) {
        spec.event.straggler_fraction = parse_double(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "straggler-factor", v)) {
        spec.event.straggler_factor = parse_u64(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "period", v)) {
        spec.event.period = parse_u64(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "clients", v)) {
        spec.serve.clients = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "think", v)) {
        spec.serve.think_ticks = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "queue-depth", v)) {
        spec.serve.queue_depth = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "service", v)) {
        spec.serve.service_ticks = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "op-timeout", v)) {
        spec.serve.op_timeout = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "jobs", v)) {
        jobs = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "csv", v)) {
        csv_path = v;
      } else if (parse_flag(argc, argv, i, "json", v)) {
        json_path = v;
      } else if (arg == "--serve") {
        spec.serve.enabled = true;
      } else if (arg == "--sweep") {
        sweep = true;
      } else if (arg == "--no-trace") {
        trace = false;
      } else if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        return 0;
      } else {
        std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
        print_usage(stderr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad flag value: %s\n", e.what());
    return 2;
  }

  // "all" expands from the registry; only meaningful as a sweep axis.
  if (plan.backends.size() == 1 && plan.backends[0] == "all") {
    plan.backends = dex::sim::known_overlays();
  }
  if (!sweep && plan.trial_count() > 1) {
    std::fprintf(stderr,
                 "comma-listed axes expand to a grid only with --sweep\n");
    return 2;
  }
  if (!campaign.empty()) {
    // The campaign's phases name their own strategies, so a scenario axis
    // next to it would be dead weight at best and contradictory at worst.
    if (scenario_knob) {
      std::fprintf(stderr,
                   "--campaign replaces --scenario; give one or the other\n");
      return 2;
    }
    // Parsed once, here: replay traces are read now, and every trial gets
    // the parsed spec.
    std::string campaign_err;
    spec.campaign = dex::sim::parse_campaign_spec(campaign, &campaign_err);
    if (!spec.campaign) {
      std::fprintf(stderr, "bad --campaign: %s\n", campaign_err.c_str());
      return 2;
    }
  }
  if (traffic_knob && !spec.traffic.enabled()) {
    std::fprintf(stderr,
                 "traffic flags (--ops-per-step/--keys/--zipf/--read-frac) "
                 "need --workload\n");
    return 2;
  }
  if (event_knob && !spec.event.enabled) {
    std::fprintf(stderr,
                 "event flags (--latency/--loss/--stragglers/"
                 "--straggler-factor/--period) need --engine event\n");
    return 2;
  }
  if (serve_knob && !spec.serve.enabled) {
    std::fprintf(stderr,
                 "serve flags (--clients/--think/--queue-depth/--service/"
                 "--op-timeout) need --serve\n");
    return 2;
  }
  if (const auto problem = plan.validate()) {
    std::fprintf(stderr, "%s\n", problem->c_str());
    return 2;
  }

  // One flag controls churn bias everywhere it applies.
  spec.warmup_insert_prob = plan.opts.insert_prob;
  // The per-step degree scan only pays off when the trace is emitted.
  spec.measure_degree = trace;
  // Fold the strategy knob into the label so the archived summary records
  // the full workload, not just its name.
  // A campaign supersedes the scenario axis: the unused default scenario
  // name must not leak into the archived label (the campaign string itself
  // is echoed as the summary's `campaign` field).
  if (spec.campaign) spec.label = "campaign";
  const double insert_prob = plan.opts.insert_prob;
  plan.customize = [insert_prob](dex::sim::TrialSpec& t) {
    if (!t.spec.campaign &&
        (t.scenario == "churn" || t.scenario == "burst")) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "(insert_prob=%g)", insert_prob);
      t.spec.label += buf;
    }
  };

  std::ofstream csv_file, json_file;
  std::ostream* csv_os = &std::cout;
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    csv_os = &csv_file;
  }
  std::ostream* json_os = &std::cerr;
  if (!json_path.empty()) {
    json_file.open(json_path);
    if (!json_file) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    json_os = &json_file;
  }

  // Streaming emission: rows/summaries leave through the sinks as trials
  // deliver — no trace. --no-trace leaves the CSV sink unregistered; the
  // summary sink declines steps, so then nothing is buffered per step.
  // Without --sweep the sinks drop the trial column/field, so single-run
  // output keeps the classic single-trial shape. (Column *values* are not
  // frozen across versions: e.g. used_type2/type2_steps now populate on
  // single-event DEX steps, where the pre-sweep CLI always emitted 0.)
  dex::sim::CsvTraceSink csv_sink(*csv_os, /*trial_column=*/sweep);
  dex::sim::JsonSummarySink json_sink(*json_os, /*trial_field=*/sweep);
  dex::sim::ExecutorOptions opts;
  opts.jobs = sweep ? jobs : 1;
  dex::sim::Executor executor(opts);
  if (trace) executor.add_sink(csv_sink);
  executor.add_sink(json_sink);
  executor.run(plan.expand());
  return 0;
}
