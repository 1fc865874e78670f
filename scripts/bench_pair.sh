#!/usr/bin/env bash
# Paired perfbench runs of two commits, appended to the benchmark trajectory.
#
#   scripts/bench_pair.sh PARENT CHANGE WORKLOAD SEEDS
#
# PARENT and CHANGE are git revisions, WORKLOAD is one perfbench workload
# (detect, store, serve or memsim) and SEEDS a comma-separated seed list
# (e.g. 1,2,3,4); each seed is one pair of runs.
#
# Both commits are exported with `git archive` to .bench_build/parent and
# .bench_build/change: source paths of equal length, because binaries built
# from paths of different lengths have differed in speed on their own. An
# export is reused while its .rev file names the same commit. perfbench is
# built offline in each export and both binaries are copied into
# .bench_build/bin. Each seed runs once per side, parent first on even pair
# indices and change first on odd ones, each run in a fresh working
# directory with `--seconds 20 --trace 0`. Full run outputs (host facts,
# digests, failed checks) are kept in .bench_build/out.
#
# For each (commit, workload, metric) one JSON line is appended to
# results/BENCH_history.jsonl: median, q1, q3, the per-seed values, the
# seeds, and `change_wins`, the number of pairs the change won in the
# metric's direction (from BENCHMARK.json). The metrics are the end-to-end
# ones plus `failed_share`, failed over attempted operations (lower is
# better). A run that exits 1 (a failed check) still counts; any other
# failure stops the script.
#
# Run from the repository root. Needs git, cargo and python3; no network.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD SEEDS" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
workload=$3
IFS=, read -r -a seeds <<<"$4"

root=$(pwd)
build=$root/.bench_build
out=$build/out
history=$root/results/BENCH_history.jsonl
mkdir -p "$build/bin" "$out" "$root/results"

# Export REV to .bench_build/SIDE (unless it already holds REV) and build
# perfbench there.
build_side() {
    local side=$1 rev=$2
    local dir=$build/$side
    if [ "$(cat "$dir/.rev" 2>/dev/null)" != "$rev" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$rev" | tar -x -C "$dir"
        echo "$rev" >"$dir/.rev"
    fi
    echo "building perfbench at $side ${rev:0:12}" >&2
    env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path "$dir/perfbench/Cargo.toml"
    cp "$dir/perfbench/target/release/perfbench" "$build/bin/$side"
}
build_side parent "$parent"
build_side change "$change"

run_one() {
    local side=$1 seed=$2
    local log=$out/$side-$workload-$seed.out
    local cwd status=0
    cwd=$(mktemp -d)
    (cd "$cwd" && "$build/bin/$side" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0) >"$log" || status=$?
    rm -rf "$cwd"
    if [ "$status" -gt 1 ]; then
        echo "$side seed $seed exited $status; see $log" >&2
        exit 1
    fi
    echo "$side $workload seed $seed: exit $status" >&2
}

for i in "${!seeds[@]}"; do
    if [ $((i % 2)) -eq 0 ]; then
        run_one parent "${seeds[$i]}"
        run_one change "${seeds[$i]}"
    else
        run_one change "${seeds[$i]}"
        run_one parent "${seeds[$i]}"
    fi
done

python3 - "$out" "$root/BENCHMARK.json" "$history" "$parent" "$change" \
    "$workload" "${seeds[@]}" <<'EOF'
import datetime, json, statistics, sys

out, registry, history, parent, change, workload, *seeds = sys.argv[1:]
metrics = [(m["name"], m["unit"], m["better"])
           for m in json.load(open(registry))["end_to_end"]]
metrics.append(("failed_share", "ratio", "lower"))

def result(side, seed):
    with open(f"{out}/{side}-{workload}-{seed}.out") as f:
        doc = json.loads(f.read().splitlines()[-1])
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    values["failed_share"] = doc["failed"] / max(doc["attempted"], 1)
    return values

runs = {side: [result(side, s) for s in seeds] for side in ("parent", "change")}
stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
with open(history, "a") as f:
    for name, unit, better in metrics:
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c[name] - p[name]) > 0
                   for p, c in zip(runs["parent"], runs["change"]))
        for side, commit in (("parent", parent), ("change", change)):
            values = [r[name] for r in runs[side]]
            if len(values) > 1:
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            else:
                q1 = median = q3 = values[0]
            f.write(json.dumps({
                "date": stamp, "workload": workload, "metric": name,
                "unit": unit, "better": better, "side": side,
                "commit": commit, "parent": parent, "change": change,
                "median": median, "q1": q1, "q3": q3, "values": values,
                "seeds": [int(s) for s in seeds],
                "pairs": len(seeds), "change_wins": wins,
            }) + "\n")
            won = f", change won {wins}/{len(seeds)}" if side == "change" else ""
            print(f"{workload} {name} {side}: median {median:.6g} "
                  f"[{q1:.6g}, {q3:.6g}]{won}")
EOF
