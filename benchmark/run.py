#!/usr/bin/env python3
"""The repository benchmark: builds dex_bench, runs the DEX workloads listed
in BENCHMARK.json, checks their outputs and prints every metric.

  python3 benchmark/run.py                    # every workload, 3 runs each
  python3 benchmark/run.py --trace            # ... plus a traced run each
  python3 benchmark/run.py --workload kv-zipf --seed 2 --seconds 20 --trace 1
  python3 benchmark/run.py --runs 5 --out A.json --out B.json
  python3 benchmark/run.py compare A.json B.json

Each run is one single-threaded dex_bench process. Given --workload, the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json, or
its per-layer metrics with --trace 1. With two --out files the runs
alternate between the two sets, which `compare` then checks against the
bounds in BENCHMARK.json. See benchmark/README.md for the metrics.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
BINARY = BUILD / "dex_bench"

# Metrics BENCHMARK.json does not carry: every metric there must be reported
# by every workload, and its spread over runs must stay within its bound,
# which step_ms_p95's does not on a shared machine. They are printed and
# compared all the same: (unit, better, bound).
EXTRA_METRICS = {
    "step_ms_p95": ("ms", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "op_fail_frac": ("fraction", "lower", 0.0),
    "stretch": ("ratio", "lower", 0.0),
    "serve_p50_ticks": ("ticks", "lower", 0.0),
    "serve_p999_ticks": ("ticks", "lower", 0.0),
}
# Deterministic for a given seed: compare checks them for equality.
EXACT_METRICS = {"heal_msgs_per_event", "heal_rounds_p95", "op_fail_frac",
                 "stretch", "serve_p50_ticks", "serve_p999_ticks"}
# Per-layer times printed beside BENCHMARK.json's per_layer list; they read
# exactly 0 on the workload without traffic.
EXTRA_LAYER_METRICS = {
    "route.ms": "ms",
    "route.share": "fraction",
    "route.us_per_call": "us",
    "traffic.ms": "ms",
    "traffic.self_ms": "ms",
    "traffic.self_share": "fraction",
}


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository sources are not beside benchmark/; "
             "nothing to build")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
                            not in cache.read_text()):
        shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dex_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


# ------------------------------------------------------------------- runs

def run_once(workload, seed, seconds, traced):
    """One dex_bench process; returns its parsed output."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--trace", str(spans)]
    env = dict(os.environ)
    env.pop("DEX_CHECK_CSR", None)  # its cross-check rebuilds every view
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(120, 4 * seconds))
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def plain_trials(raw):
    return [t for t in raw["trials"] if not t["traced"] and not t["warmup"]]


def traced_trials(raw):
    return [t for t in raw["trials"] if t["traced"]]


def summary_of(raw):
    return json.loads(raw["trials"][0]["summary"])


def offered_ops(s):
    return s["steps"] * s["ops_per_step"] if "workload" in s else 0


def failed_ops(s):
    return (s.get("failed_lookups", 0) + s.get("failed_writes", 0)
            + s.get("serve", {}).get("shed", 0))


def end_to_end(raw):
    """Metric name -> (value, sample count) from the untraced trials."""
    trials = plain_trials(raw)
    s = summary_of(raw)
    steps = [x for t in trials for x in t["step_ms"]]
    events = s["batch_inserts_total"] + s["batch_deletes_total"]
    m = {
        "setup_s": (statistics.median(t["setup_s"] for t in trials),
                    len(trials)),
        "step_ms_p50": (statistics.median(steps), len(steps)),
        "step_ms_p95": (statistics.quantiles(steps, n=20,
                                             method="inclusive")[18],
                        len(steps)),
        "churn_events_per_s": (statistics.median(
            t["events"] / t["measured_s"] for t in trials), len(trials)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "heal_msgs_per_event": (s["total_messages"] / events, events),
        "heal_rounds_p95": (s["rounds"]["p95"], s["steps"]),
    }
    if "workload" in s:
        ops = offered_ops(s)
        m["ops_per_s"] = (statistics.median(
            t["ops"] / t["measured_s"] for t in trials), len(trials))
        m["op_fail_frac"] = (failed_ops(s) / ops, ops)
        m["stretch"] = (s["mean_stretch"], s["total_ops"])
    if "serve" in s:
        lat = s["serve"]["latency"]
        m["serve_p50_ticks"] = (lat["p50"], s["serve"]["completed"])
        m["serve_p999_ticks"] = (lat["p999"], s["serve"]["completed"])
    return m


def layer_values(trial, s):
    """Per-layer numbers of one traced trial."""
    layers = trial["layers"]
    wall = 1e3 * trial["run_s"]
    draw = layers["draw"]["us"] / 1e3
    apply_ms = layers["apply"]["us"] / 1e3
    churn = layers["churn_us"] / 1e3
    view = layers["view_us"] / 1e3
    traffic = layers["traffic_us"] / 1e3
    route = layers["route"]["us"] / 1e3
    route_calls = layers["route"]["calls"]
    residual = wall - draw - churn - view - traffic
    serve = s.get("serve", {})
    return {
        "adversary.draw_ms": draw,
        "adversary.draw_share": draw / wall,
        "adversary.draws": layers["draw"]["calls"],
        "overlay.apply_ms": apply_ms,
        "overlay.apply_share": apply_ms / wall,
        "overlay.apply_calls": layers["apply"]["calls"],
        "overlay.walk_epochs": s["total_walk_epochs"],
        "overlay.parallel_steps": s["parallel_steps"],
        "overlay.type2_steps": s["type2_steps"],
        "view.advance_ms": view,
        "view.share": view / wall,
        "view.rows_enumerated": layers["live_ports"],
        "view.drains": layers["drain"]["calls"],
        "route.ms": route,
        "route.share": route / wall,
        "route.calls": route_calls,
        "route.us_per_call": 1e3 * route / route_calls if route_calls else 0.0,
        "traffic.ms": traffic,
        "traffic.self_ms": traffic - route,
        "traffic.self_share": (traffic - route) / wall,
        "traffic.moved_keys": s.get("moved_keys", 0),
        "traffic.rehash_messages": s.get("rehash_messages", 0),
        "engine.residual_ms": residual,
        "engine.residual_share": residual / wall,
        "event.max_in_flight": s.get("max_in_flight", 0),
        "serve.completed": serve.get("completed", 0),
        "serve.shed": serve.get("shed", 0),
        "serve.timeouts": serve.get("timeouts", 0),
        "serve.peak_queue": serve.get("peak_queue", 0),
        # Not reported; the gate checks the bucket nesting with these.
        "_churn_ms": churn,
        "_drain_ms": layers["drain"]["us"] / 1e3,
    }


def per_layer(raw):
    """Metric name -> (median over traced trials, traced trial count)."""
    s = summary_of(raw)
    rows = [layer_values(t, s) for t in traced_trials(raw)]
    m = {name: (statistics.median(r[name] for r in rows), len(rows))
         for name in rows[0]}
    traced = statistics.median(t["run_s"] for t in traced_trials(raw))
    plain = statistics.median(t["run_s"] for t in plain_trials(raw))
    m["trace.overhead"] = (traced / plain - 1, len(rows))
    return m


def gate(raw):
    """Correctness problems of one run, as messages (empty = correct)."""
    problems = []
    summaries = {t["summary"] for t in raw["trials"]}
    if len(summaries) != 1:
        problems.append("trials of one seed printed different summaries "
                        "(traced vs untraced, or repeated runs)")
    s = summary_of(raw)
    for t in raw["trials"]:
        if t["records"] != s["steps"]:
            problems.append(f"observer saw {t['records']} steps, "
                            f"summary has {s['steps']}")
    if "workload" in s:
        if "serve" in s:
            done = s["serve"]["completed"] + s["serve"]["shed"]
        else:
            done = s["total_ops"]
        if done != offered_ops(s):
            problems.append(f"{done} ops completed or shed, "
                            f"{offered_ops(s)} offered")
    if not s["min_n"] <= s["final_n"] <= s["max_n"]:
        problems.append(f"final_n {s['final_n']} outside "
                        f"[{s['min_n']}, {s['max_n']}]")
    tol = 0.01  # ms; clock reads between nested timers
    for t in traced_trials(raw):
        v = layer_values(t, s)
        if v["route.ms"] > v["traffic.ms"] + tol:
            problems.append("route time exceeds the traffic bucket")
        if v["overlay.apply_ms"] > v["_churn_ms"] + tol:
            problems.append("apply time exceeds the churn bucket")
        if v["_drain_ms"] > v["view.advance_ms"] + tol:
            problems.append("drain time exceeds the view bucket")
        if v["engine.residual_ms"] < -tol:
            problems.append("timed layers exceed the trial's wall time")
    return problems


def result_line(raw, names, units, problems):
    s = summary_of(raw)
    per_trial_ops = (offered_ops(s) + s["batch_inserts_total"]
                     + s["batch_deletes_total"])
    measured = {**end_to_end(raw), **(per_layer(raw) if traced_trials(raw)
                                      else {})}
    return {
        "correct": not problems,
        "attempted": per_trial_ops * len(raw["trials"]),
        "failed": failed_ops(s) * len(raw["trials"]),
        "metrics": {n: {"value": measured[n][0], "unit": units[n]}
                    for n in names},
    }


# ----------------------------------------------------------------- report

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(title, rows):
    """rows: (workload, metric, unit, values over runs, samples per run)."""
    print(f"\n{title}")
    print(f"{'workload':<14} {'metric':<24} {'unit':<9} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'runs':>4} {'samples':>8}")
    for workload, metric, unit, values, samples in rows:
        q1, med, q3 = quartiles(values)
        print(f"{workload:<14} {metric:<24} {unit:<9} {med:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {len(values):>4} {samples:>8}")


def units_of(bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench["per_layer"]})
    units.update({n: u for n, (u, _, _) in EXTRA_METRICS.items()})
    units.update(EXTRA_LAYER_METRICS)
    return units


def e2e_names(bench):
    return [m["name"] for m in bench["end_to_end"]] + list(EXTRA_METRICS)


def layer_names(bench):
    return [m["name"] for m in bench["per_layer"]] + list(EXTRA_LAYER_METRICS)


def environment():
    commit = "unknown"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip() + ("-dirty" if dirty.stdout else "")
    return {"date": datetime.date.today().isoformat(), "commit": commit,
            "nproc": os.cpu_count()}


def print_environment(raw, seed):
    env = environment()
    print(f"dex_bench {raw['compiler']} {raw['build_type']} "
          f"nproc={env['nproc']} commit={env['commit']} seed={seed}")


def run_one(args, bench):
    """One run of one workload, ending with the result line."""
    raw = run_once(args.workload, args.seed, args.seconds, args.trace)
    problems = gate(raw)
    units = units_of(bench)
    e2e = end_to_end(raw)
    rows = [(args.workload, n, units[n], [e2e[n][0]], e2e[n][1])
            for n in e2e_names(bench) if n in e2e]
    print_environment(raw, args.seed)
    print_table("end-to-end (untraced trials)", rows)
    if args.trace:
        layers = per_layer(raw)
        print_table("per layer (traced trials)",
                    [(args.workload, n, units[n], [layers[n][0]],
                      layers[n][1]) for n in layer_names(bench)])
    for p in problems:
        print(f"FAIL {args.workload}: {p}", file=sys.stderr)
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[group]]
    print(json.dumps(result_line(raw, names, units, problems)))
    return 1 if problems else 0


def run_all(args, bench):
    """Every workload, --runs untraced runs each (interleaved between the
    --out sets), plus one traced run each with --trace."""
    workloads = [w["name"] for w in bench["workloads"]]
    sets = args.out or [None]
    results = [{w: [] for w in workloads} for _ in sets]
    summaries = {w: set() for w in workloads}
    problems = []
    raw_by_workload = {}
    for r in range(args.runs):
        for w in workloads:
            # With two sets, which one runs first alternates run by run.
            for k in (range(len(sets)) if r % 2 == 0
                      else reversed(range(len(sets)))):
                raw = run_once(w, args.seed, args.seconds, False)
                raw_by_workload[w] = raw
                problems += [f"{w}: {p}" for p in gate(raw)]
                summaries[w].add(raw["trials"][0]["summary"])
                results[k][w].append(
                    {n: v for n, (v, _) in end_to_end(raw).items()})
    for w in workloads:
        if len(summaries[w]) != 1:
            problems.append(f"{w}: runs of seed {args.seed} printed "
                            "different summaries")

    units = units_of(bench)
    rows = []
    for w in workloads:
        samples = end_to_end(raw_by_workload[w])
        for n in e2e_names(bench):
            if n in samples:
                values = [run[n] for res in results for run in res[w]]
                rows.append((w, n, units[n], values, samples[n][1]))
    print_environment(raw_by_workload[workloads[0]], args.seed)
    print_table("end-to-end (untraced runs)", rows)

    if args.trace:
        rows = []
        for w in workloads:
            raw = run_once(w, args.seed, args.seconds, True)
            problems += [f"{w}: {p}" for p in gate(raw)]
            if raw["trials"][0]["summary"] not in summaries[w]:
                problems.append(f"{w}: traced summary differs from untraced")
            layers = per_layer(raw)
            rows += [(w, n, units[n], [layers[n][0]], layers[n][1])
                     for n in layer_names(bench)]
        print_table("per layer (one traced run each)", rows)

    for path, res in zip(sets, results):
        if path:
            Path(path).write_text(json.dumps(
                {"environment": environment(), "seconds": args.seconds,
                 "seed": args.seed, "runs": res}, indent=1) + "\n")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("gate: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


# ---------------------------------------------------------------- compare

def compare(paths, bench):
    """Per (workload, metric): each side's median and quartiles, the pair
    wins of interleaved runs, and a verdict against BENCHMARK.json's bound.
    Exits 1 on any `worse`."""
    if len(paths) != 2:
        fail("usage: run.py compare A.json B.json")
    a_res, b_res = (json.loads(Path(p).read_text())["runs"] for p in paths)
    info = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    info.update({n: (better, bound) for n, (_, better, bound) in
                 EXTRA_METRICS.items()})
    print(f"{'workload':<14} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'B/A wins':>9} verdict")
    verdicts = []
    for w in a_res:
        for name, (better, bound) in info.items():
            a = [r[name] for r in a_res[w] if name in r]
            b = [r[name] for r in b_res.get(w, []) if name in r]
            if not a or not b:
                continue
            verdict, row = judge(name, better, bound, a, b)
            verdicts.append((w, name, verdict, row))
            print(f"{w:<14} {name:<20} {row}")
    unresolved = [(w, n, r) for w, n, v, r in verdicts if v == "unresolved"]
    for w, n, row in unresolved:
        print(f"unresolved: {w} {n}: {row}")
    worse = [(w, n) for w, n, v, _ in verdicts if v == "worse"]
    print(f"{len(verdicts)} comparisons, {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse else 0


def judge(name, better, bound, a, b):
    """Exact metrics must match. A timing is `better` when B wins nine tenths
    of the pairs and its median moved by more than A's inter-quartile range;
    `worse` when B's median is worse by more than the bound; `unresolved`
    when either side's spread exceeds the bound, unless every B run beats
    every A run."""
    qa, qb = quartiles(a), quartiles(b)
    lower_is_better = better == "lower"

    def beats(x, y):
        return x < y if lower_is_better else x > y

    wins_b = sum(beats(y, x) for x, y in zip(a, b))
    wins_a = sum(beats(x, y) for x, y in zip(a, b))
    med_a, med_b = qa[1], qb[1]
    # Positive = B is worse, as a share of A's median.
    worse_by = ((med_b - med_a) if lower_is_better else (med_a - med_b))
    worse_by = worse_by / abs(med_a) if med_a else (0.0 if med_b == med_a
                                                    else float("inf"))
    spread = max((qa[2] - qa[0]) / abs(med_a) if med_a else 0.0,
                 (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0)
    if name in EXACT_METRICS:
        if sorted(a) == sorted(b):
            verdict = "same"
        elif med_a == med_b:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse_by > 0 else "better"
    elif (wins_b >= 0.9 * len(a) and worse_by < 0
          and abs(med_b - med_a) > qa[2] - qa[0]):
        verdict = "better"
    elif spread > bound and not all(beats(y, x) for x in a for y in b):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "same"
    row = (f"{med_a:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
           f"{med_b:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
           f" {100 * worse_by:>+7.2f}% {wins_b:>4}/{wins_a:<4} {verdict}")
    return verdict, row


# ------------------------------------------------------------------- main

def main(argv):
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        return compare(argv[1:], bench)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="add traced trials")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload and --out set")
    parser.add_argument("--out", action="append",
                        help="write per-run metrics here (twice: two "
                             "interleaved sets)")
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload}; "
                     f"one of {', '.join(names)}")
    if args.seconds <= 0 or args.runs < 1 or len(args.out or []) > 2:
        parser.error("--seconds and --runs must be positive; "
                     "at most two --out")
    build()
    if args.workload is not None:
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
