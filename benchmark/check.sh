#!/usr/bin/env bash
# Repeatability check: is the benchmark steady enough to judge a change?
#
#   benchmark/check.sh [--smoke]
#
# Per workload: two untraced runs and two traced runs on seed 1, one
# untraced run on seed 2, each as long as BENCHMARK.json's `run_seconds`.
# Asserts that every run passes its correctness gate, that metrics of unit
# `count` are exactly equal between the two runs of a pair, and that every
# end-to-end metric of another unit agrees within the bound BENCHMARK.json
# gives it.  `--smoke` shrinks every workload so the whole check takes
# seconds; it then checks correctness and counts only.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

case "${1:-}" in
"") SMOKE=() SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])') ;;
--smoke) SMOKE=(--smoke) SECONDS_PER_RUN=0.2 ;;
*) echo "check.sh: unknown argument $1" >&2; exit 2 ;;
esac

bash benchmark/build.sh
BENCH=${CARGO_TARGET_DIR:-.bench_build}/benchmark/bench
OUT=benchmark/out/check
mkdir -p "$OUT"

run() { # <file> <workload> <seed> <trace>: keeps the result line
    "$BENCH" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace "$4" "${SMOKE[@]}" |
        tail -1 >"$OUT/$1.json"
}

status=0
for w in $("$BENCH" --list); do
    run "$w.a0" "$w" 1 0 || status=1
    run "$w.b0" "$w" 1 0 || status=1
    run "$w.c0" "$w" 2 0 || status=1
    run "$w.a1" "$w" 1 1 || status=1
    run "$w.b1" "$w" 1 1 || status=1
done

python3 - "$OUT" "${#SMOKE[@]}" <<'EOF' || status=1
import json, sys
out, smoke = sys.argv[1], sys.argv[2] != "0"
spec = json.load(open("BENCHMARK.json"))
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
names = {"0": [m["name"] for m in spec["end_to_end"]], "1": [m["name"] for m in spec["per_layer"]]}
bad = 0
for w in (x["name"] for x in spec["workloads"]):
    runs = {k: json.load(open(f"{out}/{w}.{k}.json")) for k in ("a0", "b0", "c0", "a1", "b1")}
    for k, r in runs.items():
        if sorted(r["metrics"]) != sorted(names[k[1]]):
            print(f"FAIL {w} run {k}: metrics printed differ from those BENCHMARK.json lists")
            bad += 1
    for k, r in runs.items():
        if not r["correct"] or r["failed"]:
            print(f"FAIL {w} run {k}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
            bad += 1
    print(f"{w}: seed 1 twice (seed 2 once: correct={runs['c0']['correct']})")
    for a, b in (("a0", "b0"), ("a1", "b1")):
        for name, ma in runs[a]["metrics"].items():
            va, vb, unit = ma["value"], runs[b]["metrics"][name]["value"], ma["unit"]
            if unit == "count":
                ok, how = va == vb, "exact"
            elif name in bound and not smoke:
                rel = abs(va - vb) / min(abs(va), abs(vb)) if min(abs(va), abs(vb)) > 0 else 0.0
                ok, how = rel <= bound[name], f"{rel:.1%} apart, bound {bound[name]:.0%}"
            else:
                continue  # per-layer timings have no bound; smoke timings mean nothing
            print(f"  {'ok  ' if ok else 'FAIL'} {name:<36} {va:>16.6g} {vb:>16.6g} {unit:<6} {how}")
            bad += not ok
print("check: " + ("ALL AGREE" if bad == 0 else f"{bad} DISAGREE"))
sys.exit(bad != 0)
EOF
exit $status
