#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
#       builds (or reuses) the harness and runs one workload; the last line
#       of stdout is the result as one JSON object.
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#       runs all five workloads, untraced then traced, and prints every
#       end-to-end and per-layer metric by name with its unit.
#
# Exits non-zero if the build fails or any output is wrong.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bash benchmark/build.sh
BENCH=${CARGO_TARGET_DIR:-.bench_build}/benchmark/bench

case " $* " in
*" --workload "*) exec "$BENCH" "$@" ;;
esac

status=0
for w in $("$BENCH" --list); do
    for trace in 0 1; do
        "$BENCH" --workload "$w" --trace "$trace" "$@" || status=1
        echo
    done
done
exit $status
