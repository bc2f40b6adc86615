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
//            --jobs=J         worker threads for the sweep (0 = all cores;
//                             needs --sweep); output is byte-identical for
//                             every J
//            --csv=FILE --json=FILE   redirect the two streams to files
//
// Flags are parsed and gated by sim::parse_run_args (sim/run_args.h):
// comma lists and --jobs need --sweep, knobs need their mode, and
// ExperimentPlan::validate checks the plan's contents. Malformed input
// exits 2 with a one-line message. scenario_fuzzer reads its case lines
// with the same function, so a fuzz case is an argument line of this
// binary: for an invariant audit after a run, pass the same arguments to
// `scenario_fuzzer --case "..."`.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/run_args.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "sim/workload.h"

namespace {

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
      "trials on --jobs threads (--jobs needs --sweep); rows gain a leading\n"
      "trial column and the output is byte-identical for every --jobs value.\n"
      "\n"
      "scenario_fuzzer's case lines are argument lines of this binary: a\n"
      "single traced trial without --sweep/--jobs/--no-trace/--csv/--json.\n",
      dex::sim::overlay_names(), dex::sim::strategy_names(),
      dex::sim::workload_names());
}

}  // namespace

int main(int argc, char** argv) {
  // Every trial owns its overlay/strategy/RNG (spec.seed drives the
  // adversary; the overlay gets a salted derivation — §2 hides only the
  // algorithm's future flips), so the Executor can run them on any number
  // of threads with byte-identical output.
  const dex::sim::RunArgs run =
      dex::sim::parse_run_args({argv + 1, argv + argc});
  if (!run.error.empty()) {
    std::fprintf(stderr, "%s\n", run.error.c_str());
    if (run.help) print_usage(stderr);
    return 2;
  }
  if (run.help) {
    print_usage(stdout);
    return 0;
  }

  // --csv/--json redirect the two streams to files; nullptr = cannot open.
  const auto open = [](const std::string& path, std::ofstream& file,
                       std::ostream& fallback) -> std::ostream* {
    if (path.empty()) return &fallback;
    file.open(path);
    if (file) return &file;
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return nullptr;
  };
  std::ofstream csv_file, json_file;
  std::ostream* csv_os = open(run.csv_path, csv_file, std::cout);
  if (!csv_os) return 1;
  std::ostream* json_os = open(run.json_path, json_file, std::cerr);
  if (!json_os) return 1;

  // Streaming emission: rows/summaries leave through the sinks as trials
  // deliver — no trace. --no-trace leaves the CSV sink unregistered; the
  // summary sink declines steps, so then nothing is buffered per step.
  // Without --sweep the sinks drop the trial column/field, so single-run
  // output keeps the classic single-trial shape. (Column *values* are not
  // frozen across versions: e.g. used_type2/type2_steps now populate on
  // single-event DEX steps, where the pre-sweep CLI always emitted 0.)
  dex::sim::CsvTraceSink csv_sink(*csv_os, /*trial_column=*/run.sweep);
  dex::sim::JsonSummarySink json_sink(*json_os, /*trial_field=*/run.sweep);
  dex::sim::ExecutorOptions opts;
  opts.jobs = run.jobs;
  dex::sim::Executor executor(opts);
  if (run.trace) executor.add_sink(csv_sink);
  executor.add_sink(json_sink);
  executor.run(run.plan.expand());
  return 0;
}
