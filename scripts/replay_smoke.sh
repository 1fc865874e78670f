#!/usr/bin/env bash
# Record/replay determinism smoke: run a fleet campaign while recording
# per-job transcripts, replay the same campaign from those transcripts with
# no simulator behind the port, and fail if the replayed profile store
# differs byte-for-byte from the recorded run's. A `detect` record/replay
# pair is head-compared the same way, and `parbor transcript dump` must
# render the detect transcript as one header line plus one line per round.
# A second fleet pass records with an `inject=` mechanism stack and replays
# without it, so injected noise is checked end to end too.
# Run from the repo root after `cargo build --release --workspace`.
set -euo pipefail

BIN=$(pwd)/target/release/parbor
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

common=(--vendors A,B --modules 1 --rows 48 --workers 2)

echo "-- fleet record --"
"$BIN" fleet run --dir "$work/recorded" "${common[@]}" --record "$work/transcripts"
echo "-- fleet replay --"
"$BIN" fleet run --dir "$work/replayed" "${common[@]}" --backend "replay:$work/transcripts"

diff -r "$work/recorded/store" "$work/replayed/store"
echo "replay smoke OK: replayed store is byte-identical to the recorded run"

echo "-- fleet record (injected) --"
"$BIN" fleet run --dir "$work/inj-recorded" "${common[@]}" \
  --mechanisms "inject=rate:0.01,seed:3" --record "$work/inj-transcripts"
echo "-- fleet replay (injected) --"
"$BIN" fleet run --dir "$work/inj-replayed" "${common[@]}" \
  --backend "replay:$work/inj-transcripts"

diff -r "$work/inj-recorded/store" "$work/inj-replayed/store"
echo "replay smoke OK: injected store replays byte-identically"

mkdir -p "$work/cwd/results"
detect=(detect --vendor B --rows 48 --chips 1)
# Capture to files first: piping straight into `head` would close the
# binary's stdout early and kill it with SIGPIPE.
(cd "$work/cwd" && "$BIN" "${detect[@]}" --record "$work/detect.pbt" > "$work/recorded.out")
(cd "$work/cwd" && "$BIN" "${detect[@]}" --backend "replay:$work/detect.pbt" > "$work/replayed.out")

diff <(head -7 "$work/recorded.out") <(head -7 "$work/replayed.out")
echo "replay smoke OK: replayed detect report matches the recorded run"

"$BIN" transcript dump "$work/detect.pbt" > "$work/dump.jsonl"
rounds=$(head -1 "$work/dump.jsonl" | sed -E 's/.*"rounds": ?([0-9]+).*/\1/')
lines=$(wc -l < "$work/dump.jsonl")
if [ "$lines" -ne $((rounds + 1)) ]; then
  echo "transcript dump printed $lines lines for $rounds rounds"
  exit 1
fi
echo "replay smoke OK: transcript dump renders $rounds rounds"
