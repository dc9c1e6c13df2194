#!/usr/bin/env bash
# End-to-end smoke test of the prediction server: trains a model on a small
# financial dataset, starts `crossmine serve` on an ephemeral port, and
# checks the acceptance contract —
#   * a mixed predict / predict_batch / explain / stats load completes with
#     zero hard errors and valid client-side JSON;
#   * server `predict` responses are byte-identical to offline
#     `crossmine predict` output (the determinism invariant), and offline
#     predict output is byte-identical at --threads 1 and 4 in every mode;
#   * SIGINT mid-life drains gracefully: the server exits 0 and flushes a
#     final metrics snapshot with the serve.* counters.
#
# Usage: tools/check_serve_smoke.sh [crossmine-binary] [serve_client-binary]
#        (defaults: build/tools/crossmine, build/tools/serve_client)
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-build/tools/crossmine}"
CLIENT="${2:-build/tools/serve_client}"
[ -x "$BIN" ] || { echo "check_serve_smoke: binary not found: $BIN" >&2; exit 1; }
[ -x "$CLIENT" ] || { echo "check_serve_smoke: binary not found: $CLIENT" >&2; exit 1; }

DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

"$BIN" generate financial "$DIR/data" --seed 11 --loans 60 > /dev/null
"$BIN" train "$DIR/data" "$DIR/financial.cm" > /dev/null

"$BIN" serve "$DIR/data" "$DIR/financial.cm" \
  --threads 2 --batch-size 8 --max-queue 256 --report json \
  > "$DIR/server.out" 2> "$DIR/server.err" &
SERVER_PID=$!

# The bound ephemeral port is announced on the first stdout line.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$DIR/server.out")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "check_serve_smoke: server died during startup" >&2
    cat "$DIR/server.err" >&2
    exit 1
  }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "check_serve_smoke: no port announcement" >&2; exit 1; }

# 1. Mixed load: every request answered, zero hard errors.
"$CLIENT" --port "$PORT" --requests 400 --connections 4 --ids 60 --batch 8 \
  --seed 3 --json > "$DIR/client.json" || {
  echo "check_serve_smoke: load generator reported hard errors" >&2
  cat "$DIR/client.json" >&2
  exit 1
}

# 2. Determinism: server predictions byte-identical to offline predict.
"$CLIENT" --port "$PORT" --dump --ids 60 > "$DIR/dump.txt"
"$BIN" predict "$DIR/data" "$DIR/financial.cm" 2>/dev/null \
  | head -n 60 > "$DIR/offline.txt"
cmp "$DIR/dump.txt" "$DIR/offline.txt" || {
  echo "check_serve_smoke: server predictions diverge from offline predict" >&2
  exit 1
}

# 2b. Offline bulk predict evaluates clauses on parallel lanes; its output
# must be byte-identical at any --threads, in every prediction mode.
for MODE in best vote list; do
  "$BIN" predict "$DIR/data" "$DIR/financial.cm" --mode "$MODE" \
    --threads 1 > "$DIR/predict_t1.txt" 2>/dev/null
  "$BIN" predict "$DIR/data" "$DIR/financial.cm" --mode "$MODE" \
    --threads 4 > "$DIR/predict_t4.txt" 2>/dev/null
  cmp "$DIR/predict_t1.txt" "$DIR/predict_t4.txt" || {
    echo "check_serve_smoke: --mode $MODE predict differs at --threads 1 and 4" >&2
    exit 1
  }
done

# 3. Graceful drain: SIGINT → exit 0 with a final JSON snapshot.
kill -INT "$SERVER_PID"
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
SERVER_PID=""
if [ "$SERVER_RC" -ne 0 ]; then
  echo "check_serve_smoke: server exited $SERVER_RC after SIGINT" >&2
  cat "$DIR/server.err" >&2
  exit 1
fi
grep -q '"report":"serve"' "$DIR/server.out" || {
  echo "check_serve_smoke: final snapshot missing from server output" >&2
  cat "$DIR/server.out" >&2
  exit 1
}

if command -v python3 > /dev/null; then
  python3 - "$DIR/client.json" "$DIR/server.out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    client = json.loads(f.read())
assert client["errors"] == 0, f"hard errors: {client['errors']}"
assert client["dropped"] == 0, f"dropped responses: {client['dropped']}"
assert client["answered"] == client["requests"], \
    f"{client['answered']}/{client['requests']} answered"
assert client["ok"] > 0

snapshot = None
with open(sys.argv[2]) as f:
    for line in f:
        if line.startswith('{"report":"serve"'):
            snapshot = json.loads(line)
assert snapshot is not None, "no parseable final snapshot"
for key in ["serve.requests", "serve.responses_ok", "serve.batches",
            "serve.queue_highwater", "serve.latency_p50_ms"]:
    assert key in snapshot, f"snapshot missing {key}"
# The client's 400 mixed requests plus the 60 dump predicts, all answered.
assert snapshot["serve.requests"] >= 460, snapshot["serve.requests"]
assert snapshot["serve.errors"] == 0, snapshot["serve.errors"]
print("check_serve_smoke: client + snapshot JSON OK")
EOF
else
  grep -q '"errors":0' "$DIR/client.json" || {
    echo "check_serve_smoke: client reported errors" >&2
    exit 1
  }
  echo "check_serve_smoke: grep-only JSON check OK (python3 not found)"
fi

echo "check_serve_smoke: OK"
