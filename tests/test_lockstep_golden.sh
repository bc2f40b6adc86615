#!/usr/bin/env bash
# Lockstep golden pins: fresh `dex_sim_cli --sweep` trace CSV and summary
# JSON must match the checked-in reference bytes in tests/golden/ exactly.
# The cases cover every backend, churn and burst under --batch-size 3
# --burst 4, --gap-every, --warmup, the zipf/hotspot/uniform workloads, a
# spread of single-event and batch-native strategies (every strategy that
# reads the topology among them, under both next() and next_batch()), a
# flash crowd held at its population cap, so its departure waves run, and a
# phased --campaign with a load=2 phase, a rate= gate and quiet ranges, plus
# a 300-node zipf case with 2048 keys, where AnchorHash placement
# (sim/anchor_hash.h) runs over a 600-bucket anchor and batch churn frees
# and re-takes many buckets — all on the default (sync) engine, so any
# change to the lockstep schedule, the RNG streams, key placement or the
# emission format shows up as a byte diff here.
#
# Run with the CLI binary as $1 and the golden directory as $2 (CMake
# passes both). A third argument `--update` rewrites the golden files
# instead of comparing — only for an intentional, reviewed output change.
set -u

cli="${1:?usage: test_lockstep_golden.sh <dex_sim_cli> <golden-dir> [--update]}"
golden="${2:?usage: test_lockstep_golden.sh <dex_sim_cli> <golden-dir> [--update]}"
update="${3:-}"
failures=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# golden_case <name> <flag...>
# Runs one sweep into $tmp/<name>.{csv,json} and cmps both files against
# $golden/<name>.{csv,json} (or copies them there with --update).
golden_case() {
  local name="$1"
  shift
  if ! "$cli" --sweep "$@" --csv "$tmp/$name.csv" --json "$tmp/$name.json"; then
    echo "FAIL [$name]: dex_sim_cli exited non-zero"
    failures=$((failures + 1))
    return
  fi
  local ext
  for ext in csv json; do
    if [[ "$update" == "--update" ]]; then
      cp "$tmp/$name.$ext" "$golden/$name.$ext"
      echo "updated $golden/$name.$ext"
    elif ! cmp "$golden/$name.$ext" "$tmp/$name.$ext"; then
      echo "FAIL [$name.$ext]: output differs from the golden file"
      failures=$((failures + 1))
    else
      echo "ok   [$name.$ext]"
    fi
  done
}

golden_case burst_zipf --backend all --scenario churn,burst --n0 32 \
  --steps 24 --seed 3 --batch-size 3 --burst 4 --gap-every 5 --warmup 6 \
  --workload zipf --ops-per-step 8 --keys 256
golden_case single_hotspot --backend all --scenario churn --n0 32 \
  --steps 24 --seed 5 --workload hotspot --ops-per-step 8 --keys 256
golden_case strategies --backend all \
  --scenario targeted,mass-failure,oscillate,chord-cut --n0 40 --steps 20 \
  --seed 11 --batch-size 4 --gap-every 7
golden_case topology_strategies --backend all \
  --scenario spectral,greedy-spectral,spectral-batch,oracle-bust,flash-crowd \
  --n0 40 --steps 20 --seed 13 --batch-size 4 --burst 3 --gap-every 5
# Flash-crowd from n0 = 24 under max_n 36: arrival waves reach the cap in
# three steps, and from then on departure waves, whose victims pass the §5
# connectivity check, alternate with arrivals.
golden_case flash_crowd_cap --backend all --scenario flash-crowd --n0 24 \
  --max-n 36 --steps 24 --seed 19 --batch-size 4 --gap-every 6
golden_case placement_blocks --backend all --scenario churn,burst --n0 300 \
  --steps 30 --seed 17 --batch-size 4 --burst 3 --workload zipf \
  --ops-per-step 16 --keys 2048
golden_case campaign --backend all --n0 32 --steps 30 --seed 7 \
  --batch-size 3 --gap-every 6 \
  --campaign 'churn:0-8,load=2;burst:12-20,rate=0.5;flash-crowd:24-' \
  --workload uniform --ops-per-step 6 --keys 256

if [[ $failures -ne 0 ]]; then
  echo "$failures golden check(s) failed"
  exit 1
fi
echo "all lockstep golden checks passed"
