#!/usr/bin/env bash
# Extraction smoke test against the real CLI.
#
# The refinement kernels (allocation-free jaccard/gestalt + score-bound
# early abandon) are checked bit for bit against the reference
# implementation by crates/thor-core/tests/refine_kernels.rs. This
# script checks the CLI surface around them:
#   1. `thor enrich` produces byte-identical enriched CSV and entities
#      TSV at thread counts 1 and 4;
#   2. serving the same corpus from a frozen engine artifact
#      (`--engine`) produces the same bytes;
#   3. `--refine` is not an option: both `thor enrich` and `thor serve`
#      reject it as unknown (reference refinement is a test oracle);
#   4. `--metrics` surfaces the refine.scored / refine.pruned counters,
#      and the early abandon actually prunes on this workload.
#
# Usage: scripts/extract_smoke.sh  (run from anywhere; builds if needed)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
THOR="$ROOT/target/release/thor"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/thor-extract.XXXXXX")"
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
VECS="$DATA/vectors.txt"
echo "extract smoke: ${#DOCS[@]} documents"

echo "-- threads 1 and 4: byte-identical output"
"$THOR" enrich --table "$TABLE" --vectors "$VECS" --tau 0.7 --threads 1 \
    --out "$WORK/one.csv" --entities "$WORK/one.tsv" "${DOCS[@]}" 2>/dev/null
"$THOR" enrich --table "$TABLE" --vectors "$VECS" --tau 0.7 --threads 4 \
    --out "$WORK/four.csv" --entities "$WORK/four.tsv" "${DOCS[@]}" 2>/dev/null
cmp "$WORK/one.csv" "$WORK/four.csv" || fail "CSV differs between threads 1 and 4"
cmp "$WORK/one.tsv" "$WORK/four.tsv" || fail "entities differ between threads 1 and 4"
echo "   identical output at threads 1 and 4"

echo "-- engine serving matches the direct run"
ENGINE="$WORK/disease.thorengine"
"$THOR" build --table "$TABLE" --vectors "$VECS" --tau 0.7 \
    --engine "$ENGINE" 2>/dev/null
"$THOR" enrich --engine "$ENGINE" \
    --out "$WORK/served.csv" --entities "$WORK/served.tsv" "${DOCS[@]}" 2>/dev/null
cmp "$WORK/one.csv" "$WORK/served.csv" || fail "engine-served CSV differs"
cmp "$WORK/one.tsv" "$WORK/served.tsv" || fail "engine-served entities differ"
echo "   engine serving identical"

echo "-- --refine is an unknown option"
set +e
"$THOR" enrich --table "$TABLE" --vectors "$VECS" --refine reference \
    --out "$WORK/x.csv" "${DOCS[@]}" 2>"$WORK/refine.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "enrich accepted --refine"
grep -q 'unknown option `--refine` for `thor enrich`' "$WORK/refine.log" \
    || fail "enrich --refine error is not named: $(cat "$WORK/refine.log")"
set +e
"$THOR" serve --engine "$ENGINE" --refine reference 2>"$WORK/serve-refine.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "serve accepted --refine"
grep -q 'unknown option `--refine` for `thor serve`' "$WORK/serve-refine.log" \
    || fail "serve --refine error is not named: $(cat "$WORK/serve-refine.log")"
echo "   rejected by enrich and serve"

echo "-- metrics surface the prune accounting"
"$THOR" enrich --table "$TABLE" --vectors "$VECS" --tau 0.7 --metrics \
    --out "$WORK/metered.csv" "${DOCS[@]}" 2>"$WORK/metrics.log"
grep -q "refine.scored" "$WORK/metrics.log" || fail "refine.scored counter missing"
grep -q "refine.pruned" "$WORK/metrics.log" || fail "refine.pruned counter missing"
PRUNED=$(awk '$1 == "refine.pruned" { print $3 }' "$WORK/metrics.log")
[[ "$PRUNED" =~ ^[0-9]+$ ]] || fail "refine.pruned is not a count: $PRUNED"
[[ "$PRUNED" -gt 0 ]] || fail "early abandon pruned nothing on the smoke workload"
echo "   refine.pruned = $PRUNED"

echo "extract smoke: OK"
