#!/usr/bin/env bash
# The whole benchmark in one command: build --release, run the five
# workloads untraced (end-to-end metrics) and then traced (per-layer
# metrics), print `name value unit` for every metric, and write
# benchmark/out/results.json.
#
#   benchmark/run.sh [--seed N] [--smoke] [--check]
#
#   --smoke   op counts divided by 50, one second per run, one set-up:
#             a quick check that everything still runs and answers right
#   --check   run the untraced set twice and fail unless every end-to-end
#             metric pair agrees within its bound
#
# Exits non-zero if any run failed an op, an oracle check or a self-check.
set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
# Share the repo's target directory unless the caller chose another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

seed=1
seconds=10
smoke=()
check=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift ;;
        --smoke) smoke=(--smoke); seconds=1 ;;
        --check) check=1 ;;
        *) echo "usage: $0 [--seed N] [--smoke] [--check]" >&2; exit 2 ;;
    esac
    shift
done

cargo build --release --offline --manifest-path "$here/Cargo.toml" || exit 2
bin="$CARGO_TARGET_DIR/release/upi-benchmark"
out="$here/out"
mkdir -p "$out"

workloads=(ptq_cold ptq_warm dml_lifecycle shard_scatter circle_continuous)
status=0

# run_set <trace 0|1> <file>: one run per workload, each its own process
# (so set-up time and peak memory are per workload); appends one
# {"workload", "trace", "result"} line per run to <file>.
run_set() {
    local trace="$1" file="$2" w
    : > "$file"
    for w in "${workloads[@]}"; do
        echo "== $w (trace $trace, seed $seed)"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            ${smoke[@]+"${smoke[@]}"} --out "$out" > "$out/last_run.txt" || status=1
        grep -v '^{' "$out/last_run.txt"
        printf '{"workload": "%s", "trace": %s, "result": %s}\n' \
            "$w" "$trace" "$(tail -n 1 "$out/last_run.txt")" >> "$file"
    done
}

if [ "$check" -eq 1 ]; then
    run_set 0 "$out/check_a.jsonl"
    run_set 0 "$out/check_b.jsonl"
    "$bin" agree "$out/check_a.jsonl" "$out/check_b.jsonl" || status=1
    exit "$status"
fi

run_set 0 "$out/untraced.jsonl"
run_set 1 "$out/traced.jsonl"

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
{
    printf '{"nproc": %s, "rustc": "%s", "commit": "%s", "seed": %s, "seconds": %s, "smoke": %s, "runs": [\n' \
        "$(nproc)" "$(rustc -V)" "$commit" "$seed" "$seconds" \
        "$([ ${#smoke[@]} -gt 0 ] && echo true || echo false)"
    cat "$out/untraced.jsonl" "$out/traced.jsonl" | sed '$!s/$/,/'
    printf ']}\n'
} > "$out/results.json"
echo "results: $out/results.json"
exit "$status"
