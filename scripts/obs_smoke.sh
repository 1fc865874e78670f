#!/usr/bin/env bash
# Telemetry smoke: exercise the live fleet status surface across a crash
# (status.json must say "running" after the kill and "done" after resume),
# then run a detection, check its trace lists children before parents, and
# check `parbor obs report` produces the stage table and
# flamegraph.pl-compatible folded stacks from the trace.
# Run from the repo root after `cargo build --release`.
set -euo pipefail

BIN=$(pwd)/target/release/parbor
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

common=(--vendors A,B,C --modules 1 --rows 48 --workers 2 --checkpoint-every 16)

# -- live status surface across crash and resume --
set +e
"$BIN" fleet run --dir "$work/fleet" "${common[@]}" --crash-after 2 >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 42 ]; then
    echo "expected the crash hook's exit code 42, got $code"
    exit 1
fi

echo "-- fleet top after kill --"
top_out=$("$BIN" fleet top --dir "$work/fleet" --once)
echo "$top_out"
grep -q "fleet running" <<<"$top_out" \
    || { echo "status surface must still say running after a crash"; exit 1; }

"$BIN" fleet resume --dir "$work/fleet" --workers 2 --checkpoint-every 16 >/dev/null

echo "-- fleet top after resume --"
top_out=$("$BIN" fleet top --dir "$work/fleet" --once)
echo "$top_out"
grep -q "fleet done" <<<"$top_out" \
    || { echo "status surface must say done after resume"; exit 1; }
grep -q "3/3 jobs done" <<<"$top_out" \
    || { echo "status surface must count all three jobs done"; exit 1; }

# -- span-tree profiling from a detection trace --
mkdir -p "$work/detect/results"
(cd "$work/detect" && "$BIN" detect --vendor A --rows 48 --chips 1 >/dev/null)
# The trace lists spans in finish order: every span's parent is null or
# sits on a later line (children before parents).
awk '
    /"type":"span"/ {
        match($0, /"id":[0-9]+/); id = substr($0, RSTART + 5, RLENGTH - 5)
        match($0, /"parent":(null|[0-9]+)/); parent = substr($0, RSTART + 9, RLENGTH - 9)
        line[id] = NR; ids[NR] = id; parents[NR] = parent; spans++
    }
    END {
        if (spans == 0) { print "trace has no spans"; exit 1 }
        for (n in parents) {
            p = parents[n]
            if (p != "null" && !(line[p] > n + 0)) {
                print "span " ids[n] " (line " n ") is not followed by its parent " p
                bad = 1
            }
        }
        exit bad
    }' "$work/detect/results/trace.jsonl" \
    || { echo "trace.jsonl must list children before their parents"; exit 1; }
report_out=$(cd "$work/detect" && "$BIN" obs report)
echo "-- obs report --"
echo "$report_out"
for stage in pipeline.discover pipeline.recursion pipeline.chipwide; do
    grep -q "$stage" <<<"$report_out" \
        || { echo "obs report must list $stage"; exit 1; }
done
grep -q "^pipeline.run;pipeline.discover " "$work/detect/results/profile.folded" \
    || { echo "folded stacks must nest stages under pipeline.run"; exit 1; }

echo "obs smoke OK: status surface tracked crash/resume and obs report profiled the trace"
