#!/usr/bin/env bash
# Profile-query service smoke: drive the serve subcommand over both
# engines and both load disciplines, and serve from a freshly scanned
# fleet store. Every run must report a balanced ledger (serve OK,
# unexplained=0), and both status files must record a clean shutdown.
# Run from the repo root after `cargo build --release`.
set -euo pipefail

BIN=target/release/parbor
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

check() {
    local label=$1
    shift
    local out
    out=$("$@")
    grep -q "serve OK:" <<<"$out" || {
        echo "$label: missing 'serve OK:' verdict"
        echo "$out"
        exit 1
    }
    grep -q "unexplained=0" <<<"$out" || {
        echo "$label: ledger did not balance"
        echo "$out"
        exit 1
    }
    echo "$label OK"
}

common=(--vendors A,B --modules 2 --rows 32 --cols 1024 --seconds 0.1)

echo "-- inline engine, closed loop --"
check "inline/closed" "$BIN" serve "${common[@]}" \
    --status-out "$work/status.json"
grep -q '"clean_shutdown": true' "$work/status.json" || {
    echo "status JSON missing clean_shutdown"
    exit 1
}

echo "-- threaded engine, open loop --"
check "threads/open" "$BIN" serve "${common[@]}" \
    --engine threads --workers 2 --mode open --rate 50000

echo "-- store-backed scope from a fleet scan --"
"$BIN" fleet run --dir "$work/fleet" "${common[@]::6}" --workers 1 >/dev/null
check "store-backed" "$BIN" serve "${common[@]}" --store "$work/fleet/store"

echo "-- inline engine, open loop --"
check "inline/open" "$BIN" serve "${common[@]}" --mode open --rate 50000 \
    --status-out "$work/open-status.json"
grep -q '"clean_shutdown": true' "$work/open-status.json" || {
    echo "open-loop status JSON missing clean_shutdown"
    exit 1
}

echo "serve smoke OK: all four configurations balanced their ledgers"
