#!/usr/bin/env bash
# The repo benchmark's one entry point: builds the driver package, then
#
#   run.sh                      the suite: 4 workloads x (5 untraced runs +
#                               1 traced), every metric printed, outputs
#                               verified, results in benchmark/out/results.json
#   run.sh --smoke              the suite with one 3-second window per run,
#                               2 untraced runs and no layer probes
#   run.sh --aa [--smoke]       the suite twice, then `compare` the two
#   run.sh compare A.json B.json
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                               one run; last line of stdout is its result
#                               as one JSON object
#
# Suite options: --seed N (default 1), --seconds S (default 20), --out FILE.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fgs-benchmark"

case " $* " in
*" --workload "* | " compare "*)
    exec "$bin" "$@"
    ;;
*" --aa "*)
    args=()
    for a in "$@"; do [[ $a == --aa ]] || args+=("$a"); done
    "$bin" suite --out benchmark/out/aa-1.json ${args[@]+"${args[@]}"}
    "$bin" suite --out benchmark/out/aa-2.json ${args[@]+"${args[@]}"}
    exec "$bin" compare benchmark/out/aa-1.json benchmark/out/aa-2.json
    ;;
*)
    exec "$bin" suite "$@"
    ;;
esac
