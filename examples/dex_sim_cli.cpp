// Simulator CLI. Two modes:
//
// (1) Scenario/sweep mode — any backends x any adversaries x any sizes from
//     one binary, driven by the declarative ExperimentPlan + parallel
//     Executor (sim/experiment.h); per-step traces stream as CSV (stdout or
//     --csv FILE) and per-trial summaries as JSON lines (stderr or --json
//     FILE) through MetricSinks, so memory stays flat however long the run:
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
// (2) Scripted mode (legacy) — drive a DexOverlay from a churn script
//     (stdin or file), for reproducing traces, debugging adversarial
//     sequences, and piping experiments from other tooling. PUT/GET go
//     through sim::KvStore, the same store the --workload traffic serves.
//
// Script commands (one per line, '#' comments):
//   INIT <n0> [seed] [worstcase|amortized]   (re)create the network
//   INSERT <attach_id>                       insert a node
//   DELETE <id>                              delete a node
//   CHURN <steps> <insert_prob>              random churn burst
//   KILL_COORDINATOR                         delete the coordinator
//   PUT <key> <value>       GET <key>        key-value operations
//   STATS                                    n/p/gap/degree/cost summary
//   AUDIT                                    run check_invariants()
//   DOT                                      Graphviz of the real network
//
//   $ printf 'INIT 32 7\nCHURN 100 0.6\nSTATS\nAUDIT\n' | ./dex_sim_cli

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include <vector>

#include "dex/network.h"
#include "graph/bfs.h"
#include "graph/spectral.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "sim/workload.h"
#include "support/prng.h"

namespace {

// ------------------------------------------------------------ scenario mode

struct ScenarioArgs {
  bool sweep = false;
  std::vector<std::string> backends{"dex-worstcase"};
  std::vector<std::string> scenarios{"churn"};
  std::vector<std::size_t> n0s{64};
  std::vector<std::uint64_t> seeds{1};
  std::vector<std::size_t> batch_sizes{1};
  std::size_t jobs = 1;
  unsigned trial_jobs = 1;
  std::string csv_path;
  std::string json_path;
  /// --campaign as given; parsed into spec.campaign during validation.
  std::string campaign;
  dex::sim::ScenarioSpec spec;
  dex::sim::StrategyOptions opts;
  bool trace = true;
};

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

/// stoull that rejects what std::stoull silently accepts or reports badly:
/// negative input (wrapped to huge values), trailing garbage ("1e3"
/// parsing as 1), and non-numeric input (bare "stoull" exception text).
std::uint64_t parse_u64(const std::string& v) try {
  std::size_t pos = 0;
  std::uint64_t out = 0;
  // Require a leading digit: stoull itself skips whitespace and accepts a
  // sign, which would let " -1" wrap to 2^64-1.
  if (!v.empty() && std::isdigit(static_cast<unsigned char>(v[0]))) {
    out = std::stoull(v, &pos);
  }
  if (pos != v.size() || v.empty()) throw std::invalid_argument(v);
  return out;
} catch (const std::exception&) {  // invalid_argument or out_of_range
  throw std::invalid_argument("expected a non-negative integer, got '" + v +
                              "'");
}

/// stod with the same strictness (rejects "0.5x", clean message for "abc").
double parse_double(const std::string& v) try {
  std::size_t pos = 0;
  const double out = v.empty() ? 0.0 : std::stod(v, &pos);
  if (pos != v.size() || v.empty()) throw std::invalid_argument(v);
  return out;
} catch (const std::exception&) {  // invalid_argument or out_of_range
  throw std::invalid_argument("expected a number, got '" + v + "'");
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
      "                   [--sweep] [--jobs=J] [--trial-jobs=J]\n"
      "                   [--csv=FILE] [--json=FILE]\n"
      "       dex_sim_cli [script-file]        (legacy scripted mode)\n"
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
      "byte-determinism contracts (--jobs/--trial-jobs) hold\n"
      "under campaigns unchanged.\n"
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
      "archives the regime, and every --jobs/--trial-jobs value stays\n"
      "byte-identical.\n"
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
      "output is byte-identical for every --jobs value. --trial-jobs adds\n"
      "threads *inside* each trial (parallel walk-port enumeration on DEX;\n"
      "also byte-identical) — raise it for few-but-huge trials instead of\n"
      "--jobs.\n",
      dex::sim::overlay_names(), dex::sim::strategy_names(),
      dex::sim::workload_names());
}

int run_scenario(int argc, char** argv) {
  ScenarioArgs a;
  a.spec.steps = 256;
  bool traffic_knob = false;
  bool event_knob = false;
  bool serve_knob = false;
  bool scenario_knob = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (parse_flag(argc, argv, i, "backend", v)) {
        a.backends = split_csv(v);
      } else if (parse_flag(argc, argv, i, "scenario", v)) {
        a.scenarios = split_csv(v);
        scenario_knob = true;
      } else if (parse_flag(argc, argv, i, "campaign", v)) {
        a.campaign = v;
      } else if (parse_flag(argc, argv, i, "n0", v)) {
        a.n0s.clear();
        for (const auto& s : split_csv(v)) a.n0s.push_back(parse_u64(s));
      } else if (parse_flag(argc, argv, i, "seed", v)) {
        a.seeds.clear();
        for (const auto& s : split_csv(v)) a.seeds.push_back(parse_u64(s));
      } else if (parse_flag(argc, argv, i, "batch-size", v)) {
        a.batch_sizes.clear();
        for (const auto& s : split_csv(v)) {
          a.batch_sizes.push_back(parse_u64(s));
          if (a.batch_sizes.back() == 0) {
            throw std::invalid_argument("--batch-size must be >= 1");
          }
        }
      } else if (parse_flag(argc, argv, i, "steps", v)) {
        a.spec.steps = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "min-n", v)) {
        a.spec.min_n = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "max-n", v)) {
        a.spec.max_n = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "warmup", v)) {
        a.spec.warmup_steps = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "insert-prob", v)) {
        a.opts.insert_prob = parse_double(v);
        if (!(a.opts.insert_prob >= 0.0 && a.opts.insert_prob <= 1.0)) {
          throw std::invalid_argument("--insert-prob must be in [0, 1], got " +
                                      v);
        }
      } else if (parse_flag(argc, argv, i, "gap-every", v)) {
        a.spec.gap_every = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "burst", v)) {
        a.spec.burst_every = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "workload", v)) {
        a.spec.traffic.workload = v;
      } else if (parse_flag(argc, argv, i, "ops-per-step", v)) {
        a.spec.traffic.ops_per_step = parse_u64(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "keys", v)) {
        a.spec.traffic.keyspace = parse_u64(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "zipf", v)) {
        a.spec.traffic.zipf_s = parse_double(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "read-frac", v)) {
        a.spec.traffic.read_fraction = parse_double(v);
        traffic_knob = true;
      } else if (parse_flag(argc, argv, i, "engine", v)) {
        if (v != "sync" && v != "event") {
          throw std::invalid_argument("--engine must be sync or event, got '" +
                                      v + "'");
        }
        a.spec.event.enabled = v == "event";
      } else if (parse_flag(argc, argv, i, "latency", v)) {
        const auto model = dex::sim::LatencyModel::parse(v);
        if (!model) {
          throw std::invalid_argument(
              "--latency must be fixed:T, uniform:A,B or exp:MEAN, got '" + v +
              "'");
        }
        a.spec.event.latency = *model;
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "loss", v)) {
        a.spec.event.loss_rate = parse_double(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "stragglers", v)) {
        a.spec.event.straggler_fraction = parse_double(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "straggler-factor", v)) {
        a.spec.event.straggler_factor = parse_u64(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "period", v)) {
        a.spec.event.period = parse_u64(v);
        event_knob = true;
      } else if (parse_flag(argc, argv, i, "clients", v)) {
        a.spec.serve.clients = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "think", v)) {
        a.spec.serve.think_ticks = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "queue-depth", v)) {
        a.spec.serve.queue_depth = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "service", v)) {
        a.spec.serve.service_ticks = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "op-timeout", v)) {
        a.spec.serve.op_timeout = parse_u64(v);
        serve_knob = true;
      } else if (parse_flag(argc, argv, i, "jobs", v)) {
        a.jobs = parse_u64(v);
      } else if (parse_flag(argc, argv, i, "trial-jobs", v)) {
        a.trial_jobs = static_cast<unsigned>(parse_u64(v));
      } else if (parse_flag(argc, argv, i, "csv", v)) {
        a.csv_path = v;
      } else if (parse_flag(argc, argv, i, "json", v)) {
        a.json_path = v;
      } else if (arg == "--serve") {
        a.spec.serve.enabled = true;
      } else if (arg == "--sweep") {
        a.sweep = true;
      } else if (arg == "--no-trace") {
        a.trace = false;
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
  if (a.backends.size() == 1 && a.backends[0] == "all") {
    a.backends = dex::sim::known_overlays();
  }
  if (!a.sweep && (a.backends.size() > 1 || a.scenarios.size() > 1 ||
                   a.n0s.size() > 1 || a.seeds.size() > 1 ||
                   a.batch_sizes.size() > 1)) {
    std::fprintf(stderr,
                 "comma-listed axes expand to a grid only with --sweep\n");
    return 2;
  }
  const auto& overlays = dex::sim::known_overlays();
  for (const auto& b : a.backends) {
    if (std::find(overlays.begin(), overlays.end(), b) == overlays.end()) {
      std::fprintf(stderr, "unknown backend '%s' (valid: %s)\n", b.c_str(),
                   dex::sim::overlay_names());
      return 2;
    }
  }
  const auto& strategies = dex::sim::known_strategies();
  for (const auto& s : a.scenarios) {
    if (std::find(strategies.begin(), strategies.end(), s) ==
        strategies.end()) {
      std::fprintf(stderr, "unknown scenario '%s' (valid: %s)\n", s.c_str(),
                   dex::sim::strategy_names());
      return 2;
    }
  }
  if (!a.campaign.empty()) {
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
    a.spec.campaign = dex::sim::parse_campaign_spec(a.campaign, &campaign_err);
    if (!a.spec.campaign) {
      std::fprintf(stderr, "bad --campaign: %s\n", campaign_err.c_str());
      return 2;
    }
  }
  const auto& workloads = dex::sim::known_workloads();
  if (a.spec.traffic.enabled()) {
    const auto& t = a.spec.traffic;
    if (std::find(workloads.begin(), workloads.end(), t.workload) ==
        workloads.end()) {
      std::fprintf(stderr, "unknown workload '%s' (valid: %s)\n",
                   t.workload.c_str(), dex::sim::workload_names());
      return 2;
    }
    if (t.ops_per_step == 0 || t.keyspace == 0) {
      std::fprintf(stderr,
                   "--ops-per-step and --keys must be >= 1 with a workload\n");
      return 2;
    }
    if (!(t.zipf_s > 0.0)) {
      std::fprintf(stderr, "--zipf must be > 0\n");
      return 2;
    }
    if (!(t.read_fraction >= 0.0 && t.read_fraction <= 1.0)) {
      std::fprintf(stderr, "--read-frac must be in [0, 1]\n");
      return 2;
    }
  } else if (traffic_knob) {
    std::fprintf(stderr,
                 "traffic flags (--ops-per-step/--keys/--zipf/--read-frac) "
                 "need --workload\n");
    return 2;
  }
  if (a.spec.event.enabled) {
    // Same predicate the engine asserts, surfaced as a usage error.
    if (!a.spec.event.valid()) {
      std::fprintf(stderr,
                   "event spec out of range: --loss in [0, 1), --stragglers "
                   "in [0, 1], --straggler-factor >= 1, --period >= 1\n");
      return 2;
    }
  } else if (event_knob) {
    std::fprintf(stderr,
                 "event flags (--latency/--loss/--stragglers/"
                 "--straggler-factor/--period) need --engine event\n");
    return 2;
  }
  if (a.spec.serve.enabled) {
    // Closed-loop clients live on the event clock and issue the workload's
    // requests; both prerequisites are hard.
    if (!a.spec.event.enabled || !a.spec.traffic.enabled()) {
      std::fprintf(stderr,
                   "--serve needs --engine event and a --workload\n");
      return 2;
    }
    // Same predicate the engine asserts, surfaced as a usage error.
    if (!a.spec.serve.valid()) {
      std::fprintf(stderr,
                   "serve spec out of range: --clients, --queue-depth "
                   "and --service must be >= 1\n");
      return 2;
    }
  } else if (serve_knob) {
    std::fprintf(stderr,
                 "serve flags (--clients/--think/--queue-depth/--service/"
                 "--op-timeout) need --serve\n");
    return 2;
  }
  if (a.spec.burst_every > 0 &&
      *std::max_element(a.batch_sizes.begin(), a.batch_sizes.end()) <= 1) {
    std::fprintf(stderr,
                 "--burst only paces batches; give it something to pace "
                 "with --batch-size > 1\n");
    return 2;
  }
  // Validate against the bounds the runner will actually use (a flag left
  // at 0 means "derive from n0" — see sim::resolve_bounds).
  for (std::size_t n0 : a.n0s) {
    const auto bounds = dex::sim::resolve_bounds(a.spec, n0);
    if (!bounds.valid()) {
      std::fprintf(stderr,
                   "population bounds must satisfy 3 <= min < max (got "
                   "min=%zu max=%zu for n0=%zu; defaults derive from --n0)\n",
                   bounds.min_n, bounds.max_n, n0);
      return 2;
    }
  }

  // One declarative plan covers both modes: the classic single run is a
  // one-trial grid. Every trial owns its overlay/strategy/RNG (spec.seed
  // drives the adversary; the overlay gets a salted derivation — §2 hides
  // only the algorithm's future flips), so the Executor can run them on any
  // number of threads with byte-identical output.
  dex::sim::ExperimentPlan plan;
  plan.backends = a.backends;
  plan.scenarios = a.scenarios;
  plan.populations = a.n0s;
  plan.batch_sizes = a.batch_sizes;
  plan.seeds = a.seeds;
  plan.base = a.spec;
  // One flag controls churn bias everywhere it applies.
  plan.base.warmup_insert_prob = a.opts.insert_prob;
  // The per-step degree scan only pays off when the trace is emitted.
  plan.base.measure_degree = a.trace;
  plan.opts = a.opts;
  // Fold the strategy knob into the label so the archived summary records
  // the full workload, not just its name.
  // A campaign supersedes the scenario axis: the unused default scenario
  // name must not leak into the archived label (the campaign string itself
  // is echoed as the summary's `campaign` field).
  if (a.spec.campaign) plan.base.label = "campaign";
  plan.customize = [&a](dex::sim::TrialSpec& t) {
    if (!t.spec.campaign &&
        (t.scenario == "churn" || t.scenario == "burst")) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "(insert_prob=%g)", a.opts.insert_prob);
      t.spec.label += buf;
    }
  };

  std::ofstream csv_file, json_file;
  std::ostream* csv_os = &std::cout;
  if (!a.csv_path.empty()) {
    csv_file.open(a.csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot open %s\n", a.csv_path.c_str());
      return 1;
    }
    csv_os = &csv_file;
  }
  std::ostream* json_os = &std::cerr;
  if (!a.json_path.empty()) {
    json_file.open(a.json_path);
    if (!json_file) {
      std::fprintf(stderr, "cannot open %s\n", a.json_path.c_str());
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
  dex::sim::CsvTraceSink csv_sink(*csv_os, /*trial_column=*/a.sweep);
  dex::sim::JsonSummarySink json_sink(*json_os, /*trial_field=*/a.sweep);
  dex::sim::ExecutorOptions opts;
  opts.jobs = a.sweep ? a.jobs : 1;
  opts.trial_jobs = a.trial_jobs;
  dex::sim::Executor executor(opts);
  if (a.trace) executor.add_sink(csv_sink);
  executor.add_sink(json_sink);
  executor.run(plan.expand());
  return 0;
}

// ------------------------------------------------------------ script mode

struct Session {
  Session(std::size_t n0, const dex::Params& prm)
      : overlay(n0, prm), view(overlay), kv(overlay), rng(prm.seed ^ 0xc11) {}

  /// The store synced to the overlay's current membership.
  dex::sim::KvStore& store() {
    view.advance();
    kv.sync(view);
    return kv;
  }

  // Members die bottom-up: the view and the store borrow the overlay.
  dex::sim::DexOverlay overlay;
  dex::adversary::AdversaryView view;
  dex::sim::KvStore kv;
  dex::support::Rng rng;
};

void cmd_stats(const Session& s) {
  const auto& net = s.overlay.net();
  const auto g = net.snapshot();
  const auto mask = net.alive_mask();
  std::size_t max_deg = 0;
  for (auto u : net.alive_nodes()) max_deg = std::max(max_deg, g.degree(u));
  const auto spec = dex::graph::spectral_gap(g, mask);
  std::printf(
      "n=%zu p=%llu gap=%.4f max_degree=%zu coordinator=%u staggered=%d\n"
      "totals: rounds=%llu messages=%llu topology_changes=%llu "
      "inflations=%llu deflations=%llu\n",
      net.n(), static_cast<unsigned long long>(net.p()), spec.gap, max_deg,
      net.coordinator(), net.staggered_active() ? 1 : 0,
      static_cast<unsigned long long>(net.meter().total().rounds),
      static_cast<unsigned long long>(net.meter().total().messages),
      static_cast<unsigned long long>(net.meter().total().topology_changes),
      static_cast<unsigned long long>(net.inflation_count()),
      static_cast<unsigned long long>(net.deflation_count()));
}

void cmd_dot(const Session& s) {
  const auto& net = s.overlay.net();
  std::printf("graph dex {\n");
  std::map<std::pair<dex::NodeId, dex::NodeId>, int> mult;
  net.cycle().for_each_edge([&](dex::Vertex x, dex::Vertex y) {
    auto a = net.mapping().owner(x);
    auto b = net.mapping().owner(y);
    if (a > b) std::swap(a, b);
    ++mult[{a, b}];
  });
  for (const auto& [e, m] : mult)
    std::printf("  n%u -- n%u [label=%d];\n", e.first, e.second, m);
  std::printf("}\n");
}

int run_script(int argc, char** argv) {
  std::istream* in = &std::cin;
  std::ifstream file;
  if (argc > 1) {
    file.open(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    in = &file;
  }

  std::unique_ptr<Session> s;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd)) continue;

    if (cmd == "INIT") {
      std::size_t n0 = 16;
      std::uint64_t seed = 1;
      std::string m = "worstcase";
      ss >> n0 >> seed >> m;
      dex::Params prm;
      prm.seed = seed;
      prm.mode = m == "amortized" ? dex::RecoveryMode::Amortized
                                  : dex::RecoveryMode::WorstCase;
      s = std::make_unique<Session>(n0, prm);
      std::printf("ok INIT n=%zu p=%llu\n", s->overlay.n(),
                  static_cast<unsigned long long>(s->overlay.net().p()));
      continue;
    }
    if (!s) {
      std::fprintf(stderr, "line %zu: INIT first\n", lineno);
      return 1;
    }
    auto& overlay = s->overlay;
    const auto& net = overlay.net();

    if (cmd == "INSERT") {
      unsigned a = 0;
      ss >> a;
      if (!net.alive(a)) {
        std::fprintf(stderr, "line %zu: node %u not alive\n", lineno, a);
        return 1;
      }
      const auto u = overlay.insert(a);
      const auto& c = net.last_report().cost;
      std::printf("ok INSERT -> node %u (rounds=%llu msgs=%llu)\n", u,
                  static_cast<unsigned long long>(c.rounds),
                  static_cast<unsigned long long>(c.messages));
    } else if (cmd == "DELETE") {
      unsigned v = 0;
      ss >> v;
      if (!net.alive(v) || net.n() < 3) {
        std::fprintf(stderr, "line %zu: cannot delete %u\n", lineno, v);
        return 1;
      }
      overlay.remove(v);
      const auto& c = net.last_report().cost;
      std::printf("ok DELETE %u (rounds=%llu msgs=%llu)\n", v,
                  static_cast<unsigned long long>(c.rounds),
                  static_cast<unsigned long long>(c.messages));
    } else if (cmd == "CHURN") {
      std::size_t steps = 0;
      double prob = 0.5;
      ss >> steps >> prob;
      for (std::size_t i = 0; i < steps; ++i) {
        const auto nodes = net.alive_nodes();
        if (s->rng.chance(prob) || net.n() < 4) {
          overlay.insert(nodes[s->rng.below(nodes.size())]);
        } else {
          overlay.remove(nodes[s->rng.below(nodes.size())]);
        }
      }
      std::printf("ok CHURN %zu steps -> n=%zu\n", steps, net.n());
    } else if (cmd == "KILL_COORDINATOR") {
      const auto c = net.coordinator();
      overlay.remove(c);
      std::printf("ok KILL_COORDINATOR %u -> new coordinator %u\n", c,
                  net.coordinator());
    } else if (cmd == "PUT") {
      std::uint64_t k = 0, v = 0;
      ss >> k >> v;
      // Requests enter at the coordinator.
      const auto r = s->store().put(k, v, overlay.special_node());
      if (!r.ok) {
        std::fprintf(stderr, "line %zu: PUT %llu undeliverable\n", lineno,
                     static_cast<unsigned long long>(k));
        return 1;
      }
      std::printf("ok PUT %llu (msgs=%llu)\n",
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(r.hops));
    } else if (cmd == "GET") {
      std::uint64_t k = 0;
      ss >> k;
      const auto r = s->store().get(k, overlay.special_node());
      if (r.ok) {
        std::printf("ok GET %llu = %llu (msgs=%llu)\n",
                    static_cast<unsigned long long>(k),
                    static_cast<unsigned long long>(*r.value),
                    static_cast<unsigned long long>(r.hops));
      } else {
        std::printf("ok GET %llu = <absent>\n",
                    static_cast<unsigned long long>(k));
      }
    } else if (cmd == "STATS") {
      cmd_stats(*s);
    } else if (cmd == "AUDIT") {
      net.check_invariants();
      std::printf("ok AUDIT (all invariants hold)\n");
    } else if (cmd == "DOT") {
      cmd_dot(*s);
    } else {
      std::fprintf(stderr, "line %zu: unknown command '%s'\n", lineno,
                   cmd.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strncmp(argv[1], "--", 2) == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    return run_scenario(argc, argv);
  }
  return run_script(argc, argv);
}
