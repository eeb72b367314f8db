#!/bin/sh
# Run-to-run stability of the benchmark on one commit.
#
#   sh bench/e2e/stability.sh [RUNS [WORKLOAD...]]
#
# Runs two sets of RUNS untraced runs (default 10) of every workload (or
# the ones named), each run with its own seed: set 1 uses seeds 1..RUNS,
# set 2 seeds RUNS+1..2*RUNS.  Prints each end-to-end metric's median,
# quartiles and spread (quartile distance / median) per set, and exits
# non-zero if a run is not correct, if a spread other than setup_s's
# exceeds the metric's BENCHMARK.json bound, or if set 2's median is worse
# than set 1's by more than the bound.  Run from the repository root;
# results are kept in bench/e2e/out/stability/.
set -eu
runs=${1:-10}
[ $# -gt 0 ] && shift
field() { python3 -c "import json; b = json.load(open('BENCHMARK.json')); print($1)"; }
workloads=${*:-$(field '" ".join(w["name"] for w in b["workloads"])')}
seconds=$(field 'b["run_seconds"]')
out=bench/e2e/out/stability
mkdir -p "$out"
rm -f "$out"/*.json
for set in 1 2; do
  for w in $workloads; do
    i=1
    while [ "$i" -le "$runs" ]; do
      seed=$(( (set - 1) * runs + i ))
      sh bench/e2e/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/$w.set$set.seed$seed.json"
      i=$((i + 1))
    done
  done
done
python3 - "$out" $workloads <<'EOF'
import glob, json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
status = 0
for w in workloads:
    sets = []
    for s in (1, 2):
        rows = [json.load(open(p)) for p in sorted(glob.glob(f"{out}/{w}.set{s}.seed*.json"))]
        for r in rows:
            if not r["correct"] or r["failed"]:
                print(f"FAIL {w} set {s}: a run was not correct ({r['failed']}/{r['attempted']} failed)")
                status = 1
        sets.append(rows)
    print(f"\n{w}: {len(sets[0])} + {len(sets[1])} runs")
    print(f"  {'metric':<22} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for s, rows in enumerate(sets, 1):
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, status = "  FAIL spread > bound", 1
            elif name != "setup_s" and spread > bound / 3:
                flag = "  (spread > bound/3)"
            print(f"  {name:<22} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.3f} {bound:>6}{flag}")
        worse = medians[1] / medians[0] - 1 if m["better"] == "lower" else 1 - medians[1] / medians[0]
        if worse > bound:
            print(f"  FAIL {name}: set 2 median worse by {worse:.3f} > {bound}")
            status = 1
sys.exit(status)
EOF
