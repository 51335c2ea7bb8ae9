#!/usr/bin/env bash
# Sub-linear candidate-generation smoke test against the real CLI.
#
# Exercises the bound-pruned scan end to end:
#   1. enriching from a built engine writes output (the pruned scan is
#      the only candidate path; that it equals the brute-force reference
#      bit for bit is checked by tests/prune_equivalence.rs);
#   2. the retired `--prune` option is rejected as an unknown option,
#      by name, on `thor enrich` and `thor serve`;
#   3. `thor inspect` prints the pruning sections (cluster shape),
#      lists no `quant.*` section for a fresh build, and verifies the
#      checksums;
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

echo "-- the default run serves from the pruned scan"
"$THOR" enrich --engine "$ENGINE" --out "$WORK/default.csv" "${DOCS[@]}" 2>/dev/null
[[ -s "$WORK/default.csv" ]] || fail "default enrich wrote no output"
echo "   default run wrote output"

echo "-- the retired mode options are rejected by name"
# expect_unknown CMD OPTION VALUE [ARGS...]: `thor CMD --OPTION VALUE
# ARGS...` must fail with the named unknown-option error. The timeout
# keeps an accepted `serve` from blocking the script.
expect_unknown() {
    local cmd=$1 opt=$2 value=$3 status
    shift 3
    set +e
    timeout 20 "$THOR" "$cmd" --engine "$ENGINE" "--$opt" "$value" "$@" 2>"$WORK/rejected.log"
    status=$?
    set -e
    [[ $status -ne 0 ]] || fail "thor $cmd --$opt $value was accepted"
    grep -q -- "unknown option \`--$opt\` for \`thor $cmd\`" "$WORK/rejected.log" \
        || fail "thor $cmd --$opt error is unnamed: $(cat "$WORK/rejected.log")"
}
expect_unknown enrich prune exact --out "$WORK/rejected.csv" "${DOCS[@]}"
expect_unknown enrich prune approx --out "$WORK/rejected.csv" "${DOCS[@]}"
expect_unknown serve prune exact --addr 127.0.0.1:0
[[ ! -f "$WORK/rejected.csv" ]] || fail "a rejected run still wrote output"
echo "   --prune exact|approx rejected"

echo "-- inspect prints and verifies the pruning sections"
"$THOR" inspect --engine "$ENGINE" >"$WORK/inspect.txt" || fail "inspect rejected the engine"
grep -q "candidate pruning:" "$WORK/inspect.txt" \
    || fail "inspect did not summarize candidate pruning"
grep -q "prune.centroids" "$WORK/inspect.txt" \
    || fail "inspect did not list the prune.centroids section"
if awk '{print $1}' "$WORK/inspect.txt" | grep -q '^quant\.'; then
    fail "a fresh build wrote a quant.* section: $(grep '^quant\.' "$WORK/inspect.txt")"
fi
grep -q "checksums verified" "$WORK/inspect.txt" || fail "inspect did not verify checksums"
echo "   sections listed (no quant.*), checksums verified"

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
