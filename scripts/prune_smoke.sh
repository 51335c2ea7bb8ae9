#!/usr/bin/env bash
# Sub-linear candidate-generation smoke test against the real CLI.
#
# Exercises the bound-pruned scan end to end:
#   1. enriching with `--prune exact` and the default (no flag) is
#      byte-identical (exact == exhaustive scan is checked bit for bit
#      by tests/prune_equivalence.rs; the exhaustive scan is a test
#      oracle, not a CLI value);
#   2. `--prune approx --prune-margin 0.1` runs and writes output, and
#      malformed `--prune` / `--prune-margin` values — `--prune off`
#      included — are rejected by name;
#   3. `thor inspect` prints the pruning sections (cluster shape and
#      i8 quantization) and verifies their checksums;
#   4. a flipped byte inside a pruning section is rejected by name —
#      at inspect time and at load time — never served.
#
# Usage: scripts/prune_smoke.sh  (run from anywhere; builds if needed)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
THOR="$ROOT/target/release/thor"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/thor-prune.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

if [[ ! -x "$THOR" ]]; then
    cargo build --release --manifest-path "$ROOT/Cargo.toml"
fi

DATA="$WORK/data"
"$THOR" generate --dataset disease --scale 0.08 --seed 7 --out "$DATA" 2>/dev/null
DOCS=("$DATA"/docs/validation/*.txt)
TABLE="$DATA/enrichment_table.csv"
VECTORS="$DATA/vectors.txt"
echo "prune smoke: ${#DOCS[@]} documents"

ENGINE="$WORK/engine.thorengine"
"$THOR" build --table "$TABLE" --vectors "$VECTORS" --engine "$ENGINE" 2>/dev/null

echo "-- exact pruning is the default"
"$THOR" enrich --engine "$ENGINE" --out "$WORK/default.csv" "${DOCS[@]}" 2>/dev/null
"$THOR" enrich --engine "$ENGINE" --prune exact \
    --out "$WORK/exact.csv" "${DOCS[@]}" 2>/dev/null
cmp "$WORK/default.csv" "$WORK/exact.csv" || fail "--prune exact diverged from the default"
echo "   default == exact"

echo "-- approx mode runs; malformed knobs are rejected by name"
"$THOR" enrich --engine "$ENGINE" --prune approx --prune-margin 0.1 \
    --out "$WORK/approx.csv" "${DOCS[@]}" 2>/dev/null \
    || fail "--prune approx --prune-margin 0.1 failed"
[[ -s "$WORK/approx.csv" ]] || fail "approx enrich wrote no output"
set +e
"$THOR" enrich --engine "$ENGINE" --prune sideways \
    --out "$WORK/bad.csv" "${DOCS[@]}" 2>"$WORK/bad.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "--prune sideways was accepted"
grep -q 'exact' "$WORK/bad.log" || fail "bad --prune error is unnamed: $(cat "$WORK/bad.log")"
set +e
"$THOR" enrich --engine "$ENGINE" --prune off \
    --out "$WORK/off.csv" "${DOCS[@]}" 2>"$WORK/off.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "--prune off was accepted"
grep -q -- "--prune must be \`exact\` or \`approx\`, got \`off\`" "$WORK/off.log" \
    || fail "--prune off error is unnamed: $(cat "$WORK/off.log")"
set +e
"$THOR" enrich --engine "$ENGINE" --prune exact --prune-margin 0.1 \
    --out "$WORK/bad2.csv" "${DOCS[@]}" 2>"$WORK/bad2.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "--prune-margin without approx was accepted"
grep -q 'prune-margin' "$WORK/bad2.log" \
    || fail "margin misuse error is unnamed: $(cat "$WORK/bad2.log")"
echo "   approx runs, bad knobs rejected"

echo "-- inspect prints and verifies the pruning sections"
"$THOR" inspect --engine "$ENGINE" >"$WORK/inspect.txt" || fail "inspect rejected the engine"
grep -q "candidate pruning:" "$WORK/inspect.txt" \
    || fail "inspect did not summarize candidate pruning"
grep -q "i8 quantization on" "$WORK/inspect.txt" \
    || fail "inspect did not report the quantized rows"
grep -q "prune.centroids" "$WORK/inspect.txt" \
    || fail "inspect did not list the prune.centroids section"
grep -q "checksums verified" "$WORK/inspect.txt" || fail "inspect did not verify checksums"
echo "   sections listed, checksums verified"

echo "-- a corrupted pruning section is rejected by name"
CORRUPT="$WORK/corrupt.thorengine"
cp "$ENGINE" "$CORRUPT"
OFF="$(awk '$1 == "prune.centroids" {print $2}' "$WORK/inspect.txt")"
[[ -n "$OFF" ]] || fail "could not locate the prune.centroids payload offset"
CUR="$(od -An -tu1 -j "$OFF" -N1 "$CORRUPT" | tr -d ' ')"
# shellcheck disable=SC2059
printf "$(printf '\\x%02x' $(((CUR + 1) % 256)))" |
    dd of="$CORRUPT" bs=1 seek="$OFF" conv=notrunc 2>/dev/null
set +e
"$THOR" inspect --engine "$CORRUPT" >"$WORK/corrupt_inspect.txt" 2>&1
status=$?
set -e
[[ $status -ne 0 ]] || fail "inspect accepted a corrupted pruning section"
grep -q "prune.centroids" "$WORK/corrupt_inspect.txt" \
    || fail "inspect did not name the corrupted section: $(tail -1 "$WORK/corrupt_inspect.txt")"
set +e
"$THOR" enrich --engine "$CORRUPT" --out "$WORK/x.csv" "${DOCS[@]}" 2>"$WORK/corrupt.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "enrich served a corrupted pruning section"
grep -Eq "prune.centroids|checksum" "$WORK/corrupt.log" \
    || fail "load corruption error is unnamed: $(cat "$WORK/corrupt.log")"
[[ ! -f "$WORK/x.csv" ]] || fail "corrupted run still wrote output"
echo "   flipped byte rejected at inspect and at load"

echo "prune smoke: OK"
