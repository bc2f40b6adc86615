#!/usr/bin/env bash
# CLI input validation: every malformed invocation must exit 2 with a
# single-line diagnostic on stderr and produce no simulation output on
# stdout — a typo'd sweep should die before it burns an hour, and exit
# codes must be scriptable (0 ok / 2 usage). The same holds for the case
# lines scenario_fuzzer replays, which are dex_sim_cli argument lines read
# by the same parser (sim::parse_run_args), and for the positional arguments of the
# example programs (support::positional_u64). Run with the CLI binary as $1,
# the fuzzer binary as $2 and the quickstart example as $3 (CMake passes
# $<TARGET_FILE:dex_sim_cli>, $<TARGET_FILE:scenario_fuzzer> and
# $<TARGET_FILE:quickstart>).
set -u

usage="usage: test_cli_validation.sh <dex_sim_cli> <scenario_fuzzer> <quickstart>"
cli="${1:?$usage}"
fuzzer="${2:?$usage}"
quickstart="${3:?$usage}"
failures=0

# reject_with <binary> <fragment-expected-in-stderr> <arg...>
# Asserts: exit code 2, exactly one stderr line, fragment present, empty
# stdout.
reject_with() {
  local bin="$1" fragment="$2"
  shift 2
  local out err status
  out="$("$bin" "$@" 2>/tmp/cli_validation_err)"
  status=$?
  err="$(cat /tmp/cli_validation_err)"
  if [[ $status -ne 2 ]]; then
    echo "FAIL [$*]: expected exit 2, got $status"
    failures=$((failures + 1))
    return
  fi
  if [[ -n "$out" ]]; then
    echo "FAIL [$*]: rejected run still wrote to stdout: $out"
    failures=$((failures + 1))
    return
  fi
  if [[ "$(wc -l </tmp/cli_validation_err)" -ne 1 ]]; then
    echo "FAIL [$*]: expected a one-line diagnostic, got:"
    echo "$err"
    failures=$((failures + 1))
    return
  fi
  if [[ "$err" != *"$fragment"* ]]; then
    echo "FAIL [$*]: stderr missing '$fragment', got: $err"
    failures=$((failures + 1))
    return
  fi
  echo "ok   [$*] -> $err"
}

# expect_reject <fragment> <flag...>: dex_sim_cli rejects the flags.
expect_reject() { reject_with "$cli" "$@"; }

base=(--backend lawsiu --scenario churn --n0 32 --steps 5)

# Malformed --latency specs: reversed uniform bounds, negative mean,
# unknown distribution, missing parameter.
expect_reject "--latency must be" "${base[@]}" --engine event --latency uniform:4,1
expect_reject "--latency must be" "${base[@]}" --engine event --latency exp:-1
expect_reject "--latency must be" "${base[@]}" --engine event --latency bogus:3
expect_reject "--latency must be" "${base[@]}" --engine event --latency fixed:

# Unknown enum values.
expect_reject "--engine must be" "${base[@]}" --engine turbo
expect_reject "unknown backend" --backend nosuch --scenario churn --n0 32 --steps 5

# Serve-flag gating: knobs without --serve, --serve without its
# prerequisites, and out-of-range serve values.
expect_reject "need --serve" "${base[@]}" --clients 4
expect_reject "need --serve" "${base[@]}" --queue-depth 8
expect_reject "needs --engine event" "${base[@]}" --serve
expect_reject "needs --engine event" "${base[@]}" --engine event --serve
expect_reject "serve spec out of range" \
  "${base[@]}" --engine event --workload uniform --serve --clients 0

# Malformed --campaign specs surface the parser's actionable one-liner
# (phase index, offending token, valid alternatives), and a campaign next
# to a --scenario axis is contradictory.
nosc=(--backend lawsiu --n0 32 --steps 5)
expect_reject "replaces --scenario" "${base[@]}" --campaign "churn:0-"
expect_reject "unknown strategy 'bogus'" "${nosc[@]}" --campaign "bogus:0-"
expect_reject "bad range" "${nosc[@]}" --campaign "churn:9-3"
expect_reject "rate must be" "${nosc[@]}" --campaign "churn:0-,rate=2"
expect_reject "open-ended" "${nosc[@]}" --campaign "churn;burst"
expect_reject "bad --campaign" "${nosc[@]}" --campaign "mix(churn:0-"
expect_reject "empty campaign spec" --campaign=

# Plan contents: unknown names, out-of-range counts and probabilities,
# pacing without batches, and population bounds the runner cannot honor.
expect_reject "unknown scenario" --backend lawsiu --scenario nosuch --n0 32 --steps 5
expect_reject "unknown workload" "${base[@]}" --workload nosuch
expect_reject "--ops-per-step and --keys must be >= 1" \
  "${base[@]}" --workload zipf --ops-per-step 0
expect_reject "--zipf must be > 0" "${base[@]}" --workload zipf --zipf 0
expect_reject "--read-frac must be in [0, 1]" \
  "${base[@]}" --workload zipf --read-frac 2
expect_reject "event spec out of range" "${base[@]}" --engine event --loss 1
expect_reject "--burst only paces batches" "${base[@]}" --burst 4
expect_reject "population bounds must satisfy" "${base[@]}" --min-n 2
expect_reject "--insert-prob must be in [0, 1]" "${base[@]}" --insert-prob 2
expect_reject "--batch-size must be >= 1" "${base[@]}" --batch-size 0

# Flag gating: comma lists and --jobs need --sweep, knobs need their mode.
expect_reject "only with --sweep" "${base[@]}" --seed 1,2
expect_reject "--jobs needs --sweep" "${base[@]}" --jobs 4
expect_reject "need --workload" "${base[@]}" --keys 5
expect_reject "need --engine event" "${base[@]}" --loss 0.1

# A positional argument is not a flag: usage on stderr, exit 2.
"$cli" run.txt >/dev/null 2>&1
if [[ $? -ne 2 ]]; then
  echo "FAIL: a positional argument did not exit 2"
  failures=$((failures + 1))
else
  echo "ok   [run.txt] positional argument exits 2"
fi

# A removed flag is an unknown flag: the name on the first stderr line,
# usage after it, exit 2, nothing on stdout.
out="$("$cli" "${base[@]}" --trial-jobs 2 2>/tmp/cli_validation_err)"
status=$?
first="$(head -n 1 /tmp/cli_validation_err)"
if [[ $status -ne 2 || -n "$out" || "$first" != "unknown flag '--trial-jobs'" ]]; then
  echo "FAIL [--trial-jobs 2]: exit $status, stdout '$out', stderr '$first'"
  failures=$((failures + 1))
else
  echo "ok   [--trial-jobs 2] -> $first"
fi

# Positive control: a well-formed campaign run must succeed.
if ! "$cli" "${nosc[@]}" --campaign "churn:0-2;burst:2-" \
    --no-trace --json /dev/null >/dev/null 2>&1; then
  echo "FAIL: well-formed campaign invocation did not exit 0"
  failures=$((failures + 1))
else
  echo "ok   [control] well-formed campaign run exits 0"
fi

# Positive control: the same base invocation, well-formed, must succeed —
# otherwise the rejections above prove nothing.
if ! "$cli" "${base[@]}" --engine event --workload uniform --serve \
    --clients 2 --no-trace --json /dev/null >/dev/null 2>&1; then
  echo "FAIL: well-formed control invocation did not exit 0"
  failures=$((failures + 1))
else
  echo "ok   [control] well-formed serve run exits 0"
fi

# Positive control for durability: insert-only churn never severs a
# route, so every acknowledged key stays readable and no write fails.
durable_json="$(mktemp)"
if ! "$cli" --backend dex-worstcase --scenario insert-only --n0 32 --seed 7 \
    --steps 100 --workload zipf --no-trace --json "$durable_json" \
    >/dev/null 2>&1; then
  echo "FAIL: durability control did not exit 0"
  failures=$((failures + 1))
elif ! grep -q '"failed_lookups": 0' "$durable_json" ||
    ! grep -q '"failed_writes": 0' "$durable_json"; then
  echo "FAIL: durability control lost acknowledged keys:"
  cat "$durable_json"
  failures=$((failures + 1))
else
  echo "ok   [control] insert-only zipf traffic: 0 failed lookups and writes"
fi
rm -f "$durable_json"

# scenario_fuzzer --case/--replay lines are dex_sim_cli argument lines,
# read by the CLI's own parser: each probe is the well-formed line below
# with one flag changed or added, and must be refused before any case runs.
good='--seed=7 --backend=dex-worstcase --n0=32 --steps=8 --batch-size=2 --engine=event --latency=fixed:2 --loss=0 --workload=uniform --ops-per-step=8 --keys=512 --gap-every=4 --campaign=churn:0-'
expect_fuzz_reject() { reject_with "$fuzzer" "$@"; }
expect_fuzz_reject "line 1: unknown backend 'nope'" \
  --case "${good/--backend=dex-worstcase/--backend=nope}"
expect_fuzz_reject "line 1: bad flag value: --latency must be" \
  --case "${good/--latency=fixed:2/--latency=bogus}"
expect_fuzz_reject "line 1: serve spec out of range" \
  --case "${good/--gap-every=4/--serve --clients=0 --gap-every=4}"
expect_fuzz_reject "line 1: population bounds must satisfy" \
  --case "${good/--n0=32/--n0=2}"
expect_fuzz_reject "line 1: unknown workload 'bogus'" \
  --case "${good/--workload=uniform/--workload=bogus}"
expect_fuzz_reject "line 1: bad flag value: expected a non-negative integer, got '32x'" \
  --case "${good/--n0=32/--n0=32x}"
expect_fuzz_reject "line 1: bad flag value: expected a non-negative integer, got '-1'" \
  --case "${good/--seed=7/--seed=-1}"
# A case is one traced trial, and its line must split as a shell splits it.
expect_fuzz_reject "line 1: a case line is one traced trial" \
  --case "$good --no-trace"
expect_fuzz_reject "line 1: unquoted ';'" \
  --case "${good/--campaign=churn:0-/--campaign=churn:0-2;burst:2-}"
expect_fuzz_reject "line 1: unterminated single quote" \
  --case "$good --warmup='3"

# --replay numbers lines as the file does: comments and blank lines count,
# so the message names the line to edit.
corpus="$(mktemp)"
printf '# a comment\n\n%s\n' "${good/--backend=dex-worstcase/--backend=nope}" \
  >"$corpus"
expect_fuzz_reject "line 3: unknown backend 'nope'" --replay "$corpus"
rm -f "$corpus"

# An unwritable --repro-out is refused before the first case runs, so a
# violation's repro cannot go missing unnoticed.
expect_fuzz_reject "cannot open '/nonexistent/dir/x'" \
  --inject-bug conservation --repro-out /nonexistent/dir/x

# Positive control: the well-formed line replays clean.
if ! fuzz_out="$("$fuzzer" --case "$good" 2>/dev/null)" ||
    [[ "$fuzz_out" != "ok $good" ]]; then
  echo "FAIL: well-formed fuzzer case did not replay clean: $fuzz_out"
  failures=$((failures + 1))
else
  echo "ok   [control] well-formed fuzzer case replays clean"
fi

# Positive control: the same line, as the shell reads it, runs in the CLI.
if ! eval "\"\$cli\" $good" >/dev/null 2>/tmp/cli_validation_err ||
    ! grep -q '"campaign": "churn:0-"' /tmp/cli_validation_err; then
  echo "FAIL: the fuzzer case line did not run in dex_sim_cli:"
  cat /tmp/cli_validation_err
  failures=$((failures + 1))
else
  echo "ok   [control] the fuzzer case line runs in dex_sim_cli"
fi

# Example programs parse positional arguments strictly: trailing garbage or
# a non-number exits 2 instead of running as if the argument were 0.
reject_with "$quickstart" "argument 2: expected a non-negative integer, got 'abc'" 10 abc
reject_with "$quickstart" "argument 1: expected a non-negative integer, got '-5'" -5

rm -f /tmp/cli_validation_err
if [[ $failures -ne 0 ]]; then
  echo "$failures validation check(s) failed"
  exit 1
fi
echo "all CLI validation checks passed"
