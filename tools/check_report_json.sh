#!/usr/bin/env bash
# End-to-end check of the observability reports: generates a small synthetic
# dataset, runs `crossmine evaluate --report json` for CrossMine, FOIL and
# TILDE, and validates that every stdout line is one JSON object and that
# fold lines carry the required schema — per-fold phase timings
# (propagation, literal search, sampling, re-estimation), propagation-cache
# hit/refresh/miss counters and per-class clause counts. Also checks that
# `crossmine train --report json` reports lane idle time and scan units,
# and that malformed flag values (non-numeric, negative, unknown --mode)
# exit 2 with a message naming the flag instead of falling back to a
# default.
#
# Usage: tools/check_report_json.sh [crossmine-binary]
#        (default: build/tools/crossmine)
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-build/tools/crossmine}"
[ -x "$BIN" ] || { echo "check_report_json: binary not found: $BIN" >&2; exit 1; }

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$BIN" generate synthetic "$DIR/data" --seed 7 --relations 6 --tuples 120 \
  > /dev/null

validate() {
  local classifier="$1"
  local out="$DIR/report_$classifier.jsonl"
  "$BIN" evaluate "$DIR/data" --folds 2 --classifier "$classifier" \
    --report json > "$out"
  if command -v python3 > /dev/null; then
    python3 - "$out" "$classifier" <<'EOF'
import json
import sys

path, classifier = sys.argv[1], sys.argv[2]
required = [
    "train.phase.propagation_seconds",
    "train.phase.literal_search_seconds",
    "train.phase.sampling_seconds",
    "train.phase.reestimation_seconds",
    "train.propagation.cache_hits",
    "train.propagation.cache_refreshes",
    "train.propagation.cache_misses",
    "train.index.evictions",
    "train.index.rebuilds",
    "train.index.peak_bytes",
    "train.index.budget_bytes",
    "storage.column.materializations",
    "train.clauses_built",
    "train.clauses_built.class_0",
    "train.clauses_built.class_1",
    "train.wall_seconds",
    "predict.tuples",
    "accuracy",
    "test_size",
]
folds = totals = 0
with open(path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)  # every line must parse on its own
        if obj["report"] == "fold":
            folds += 1
            for key in required:
                assert key in obj, f"{classifier}: fold line missing {key}"
        elif obj["report"] == "cv_totals":
            totals += 1
            assert "train.phase.propagation_seconds" in obj
assert folds == 2, f"{classifier}: expected 2 fold lines, got {folds}"
assert totals == 1, f"{classifier}: expected 1 cv_totals line, got {totals}"
print(f"check_report_json: {classifier} OK")
EOF
  else
    # Degraded check without python3: the required keys must appear.
    for key in train.phase.propagation_seconds train.propagation.cache_hits \
               train.clauses_built.class_0 cv_totals; do
      grep -q "$key" "$out" || {
        echo "check_report_json: $classifier output missing $key" >&2
        exit 1
      }
    done
    echo "check_report_json: $classifier OK (grep-only: python3 not found)"
  fi
}

validate crossmine
validate foil
validate tilde

# The train report carries the parallel search's scheduling record.
"$BIN" train "$DIR/data" "$DIR/model.cmm" --threads 2 --report json \
  > "$DIR/train.out"
head -n 1 "$DIR/train.out" > "$DIR/train.json"
for key in train.pool.idle_seconds train.search.scan_units; do
  grep -q "\"$key\":" "$DIR/train.json" || {
    echo "check_report_json: train report missing $key" >&2
    exit 1
  }
done
echo "check_report_json: train OK"

# A malformed value is an error naming its flag, never the default.
expect_rejected() {
  local flag="$1"
  shift
  local rc=0
  "$@" > /dev/null 2> "$DIR/stderr" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "--$flag" "$DIR/stderr"; then
    echo "check_report_json: '$*' exited $rc, want 2 naming --$flag" >&2
    cat "$DIR/stderr" >&2
    exit 1
  fi
}
expect_rejected threads "$BIN" train "$DIR/data" "$DIR/m.cmm" --threads four
expect_rejected threads "$BIN" train "$DIR/data" "$DIR/m.cmm" --threads -1
expect_rejected min-gain "$BIN" train "$DIR/data" "$DIR/m.cmm" --min-gain x
expect_rejected min-gain "$BIN" train "$DIR/data" "$DIR/m.cmm" --min-gain -1
expect_rejected folds "$BIN" evaluate "$DIR/data" --folds 2x
expect_rejected mode "$BIN" predict "$DIR/data" "$DIR/model.cmm" --mode bogus
expect_rejected memory-budget-mb \
  "$BIN" train "$DIR/data" "$DIR/m.cmm" --memory-budget-mb -5
# Every accepted --mode value still predicts.
for mode in best vote list; do
  "$BIN" predict "$DIR/data" "$DIR/model.cmm" --mode "$mode" > /dev/null 2>&1
done
echo "check_report_json: flag values OK"

echo "check_report_json: OK"
