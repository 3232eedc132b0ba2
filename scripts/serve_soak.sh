#!/usr/bin/env bash
# Serve-soak smoke: start `silkroute serve`, drive it with concurrent
# clients over the wire, check every received document byte-for-byte
# against the golden corpus, then shut the server down gracefully and
# verify it exits on its own.
#
# Usage: serve_soak.sh [silkroute-binary] [host:port]
# Run from the repository root (golden files are resolved relative to it).
set -euo pipefail

BIN=${1:-./target/release/silkroute}
ADDR=${2:-127.0.0.1:47221}
CLIENTS=4
WORK=$(mktemp -d)
SERVER=
cleanup() {
    [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# The serving scale must match the golden corpus (tests/golden/ was
# generated at 0.1 MB). Telemetry rides along: a query log with slow
# capture armed, and an injected 50 ms delay on the first scan so the
# probe query is guaranteed to cross the 25 ms slow threshold.
"$BIN" serve --mb 0.1 --listen "$ADDR" \
    --query-log "$WORK/qlog.jsonl" --slow-ms 25 --fault delay50@scan#1 &
SERVER=$!

# Wait for the listener: the first successful client round-trip doubles as
# the readiness probe.
up=0
for _ in $(seq 1 100); do
    if "$BIN" client query1 --connect "$ADDR" --plan unified \
        --out "$WORK/probe.xml" 2>/dev/null; then
        up=1
        break
    fi
    sleep 0.2
done
[ "$up" = 1 ] || { echo "server never came up" >&2; exit 1; }
cmp tests/golden/query1.xml "$WORK/probe.xml"

# An XPath over the virtual view, served over the wire: the pruned
# document comes back and the request lands in the query log below.
"$BIN" client query1 --connect "$ADDR" --plan unified \
    --xpath /supplier/name --out "$WORK/xp.xml"
grep -q '^<supplier><name>' "$WORK/xp.xml"

# Concurrent clients, each materializing both benchmark views — query2
# deliberately through a different plan, which must not change the bytes.
pids=()
for i in $(seq 1 "$CLIENTS"); do
    (
        "$BIN" client query1 --connect "$ADDR" --plan unified \
            --out "$WORK/q1.$i.xml"
        "$BIN" client query2 --connect "$ADDR" --plan outer-union \
            --out "$WORK/q2.$i.xml"
    ) &
    pids+=("$!")
done
# Mid-soak, poll the live STATS snapshot while the clients are still
# running; `top --iters 1` smokes the dashboard path. The snapshot's
# structure is checked by sr-serve's telemetry tests.
"$BIN" stats --connect "$ADDR" > "$WORK/stats.json"
grep -q '"admission"' "$WORK/stats.json"
"$BIN" top --connect "$ADDR" --iters 1 > /dev/null

for pid in "${pids[@]}"; do
    wait "$pid"
done

for i in $(seq 1 "$CLIENTS"); do
    cmp tests/golden/query1.xml "$WORK/q1.$i.xml"
    cmp tests/golden/query2.xml "$WORK/q2.$i.xml"
done

# Graceful shutdown: GOODBYE handshake, then the server process drains and
# exits by itself — no kill needed.
"$BIN" client --connect "$ADDR" --shutdown
wait "$SERVER"
SERVER=

# The XPath request is in the query log, and the injected scan delay
# produced a slow record with a Chrome trace file beside the log. Record
# structure is checked by sr-serve's telemetry tests.
grep -q '"xpath":"/supplier/name"' "$WORK/qlog.jsonl"
grep -q '"slow":true' "$WORK/qlog.jsonl"
ls "$WORK"/qlog.trace-*.json > /dev/null
echo "serve soak OK: $CLIENTS concurrent clients, $((CLIENTS * 2 + 1)) documents golden-identical"
