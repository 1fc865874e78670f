#!/usr/bin/env bash
# Kill-and-resume determinism smoke: start a multi-module fleet scan, kill
# the process mid-flight (the --crash-after hook exits 42 right after a
# checkpoint lands), resume from the journals, and fail if the resumed
# profile store differs byte-for-byte from an uninterrupted run's. While
# the uninterrupted run is live, its thread count is polled from
# /proc/PID/status and must stay within 1 + workers x nproc: the main
# thread plus, per fleet worker, at most one chip group per CPU. The rows
# are enough for round batches to outlast the poll's sampling period.
# Run from the repo root after `cargo build --release`.
set -euo pipefail

BIN=target/release/parbor
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

workers=2
common=(--vendors A,B,C --modules 1 --rows 128 --workers "$workers" --checkpoint-every 16)

"$BIN" fleet run --dir "$work/clean" "${common[@]}" >/dev/null &
pid=$!
max_threads=0
while kill -0 "$pid" 2>/dev/null; do
    { while read -r key value _; do
        if [ "$key" = "Threads:" ] && [ "$value" -gt "$max_threads" ]; then
            max_threads=$value
        fi
    done <"/proc/$pid/status"; } 2>/dev/null || true
done
wait "$pid"
ceiling=$((1 + workers * $(nproc)))
echo "fleet run threads: max $max_threads observed, ceiling $ceiling"
if [ "$max_threads" -gt "$ceiling" ]; then
    echo "the fleet run exceeded its thread ceiling"
    exit 1
fi

set +e
"$BIN" fleet run --dir "$work/crash" "${common[@]}" --crash-after 2 >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 42 ]; then
    echo "expected the crash hook's exit code 42, got $code"
    exit 1
fi

echo "-- status after kill --"
"$BIN" fleet status --dir "$work/crash"
echo "-- resume --"
"$BIN" fleet resume --dir "$work/crash" --workers 2 --checkpoint-every 16

diff -r "$work/clean/store" "$work/crash/store"
echo "fleet smoke OK: resumed store is byte-identical to the clean run"
