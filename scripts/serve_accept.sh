#!/usr/bin/env bash
# serve-accept: end-to-end acceptance of the gbserve query service.
#
# Boots gbserve on a generated R-MAT graph, drives a concurrent query smoke
# across mixed tenants — fault-free queries, one with an impossible modeled
# deadline (must 504), one from a client that hangs up (server keeps running),
# one chaos-crashed (must still answer, bitwise-stable epoch headers), a
# a repeated query (must be a reply-cache hit, byte-identical to the miss), a
# mutate+flush epoch advance (the next query is a miss again), an SSSP that
# starts warm after a flush that only lowered a weight, an over-size body
# (must 413) — then sends SIGTERM and asserts a clean drain.
set -euo pipefail

ADDR="127.0.0.1:${SERVE_PORT:-18765}"
LOG="$(mktemp)"
BIN="$(mktemp -d)/gbserve"
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG" /tmp/serve_accept_body.$$ /tmp/serve_accept_cc[12].$$ /tmp/serve_accept_big.$$' EXIT

go build -o "$BIN" ./cmd/gbserve

"$BIN" -addr "$ADDR" -graph web=rmat:10:8:1 -policy redistribute >"$LOG" 2>&1 &
PID=$!

# Wait for readiness.
for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then echo "gbserve died on boot:"; cat "$LOG"; exit 1; fi
  sleep 0.2
done
curl -fsS "http://$ADDR/readyz" >/dev/null || { echo "gbserve never became ready"; cat "$LOG"; exit 1; }

q() { # tenant, body -> prints http status code
  curl -s -o /tmp/serve_accept_body.$$ -w '%{http_code}' \
    -X POST "http://$ADDR/query" -H "X-Tenant: $1" -d "$2"
}

fail() { echo "serve-accept: $*"; cat "$LOG"; exit 1; }

# Concurrent fault-free smoke across mixed tenants and every op.
pids=()
for t in alice bob carol; do
  for op in bfs sssp cc; do
    ( s=$(q "$t" "{\"graph\":\"web\",\"op\":\"$op\",\"source\":3}"); [ "$s" = 200 ] ) &
    pids+=($!)
  done
done
( s=$(q alice '{"graph":"web","op":"pagerank"}'); [ "$s" = 200 ] ) &
pids+=($!)
( s=$(q bob '{"graph":"web","op":"triangles"}'); [ "$s" = 200 ] ) &
pids+=($!)
for p in "${pids[@]}"; do wait "$p" || fail "a concurrent query failed"; done

# The same query twice: the second is a reply-cache hit and carries the bytes
# the first computed (the smoke above has already asked for cc at source 3's
# epoch, so the first may itself be a hit; the second must be).
cc() { # body file -> prints the X-GB-Cache header's value
  curl -s -D - -o "$1" -X POST "http://$ADDR/query" -H 'X-Tenant: erin' -d '{"graph":"web","op":"cc"}' \
    | tr -d '\r' | sed -n 's/^X-Gb-Cache: //ip'
}
cc /tmp/serve_accept_cc1.$$ >/dev/null
[ "$(cc /tmp/serve_accept_cc2.$$)" = hit ] || fail "a repeated cc was not a reply-cache hit"
cmp -s /tmp/serve_accept_cc1.$$ /tmp/serve_accept_cc2.$$ || fail "the hit's body differs from the first reply's"

# One query with an impossible modeled budget: typed 504, never a hang —
# on a context of its own (pagerank) and through the BFS batcher.
for op in pagerank bfs; do
  s=$(q dora "{\"graph\":\"web\",\"op\":\"$op\",\"source\":3,\"budget_ms\":0.000001}")
  [ "$s" = 504 ] || fail "$op deadline query returned $s, want 504"
done

# One client hangs up immediately; the server must survive it.
curl -s -m 0.05 -X POST "http://$ADDR/query" -H 'X-Tenant: quitter' \
  -d '{"graph":"web","op":"pagerank","max_iter":100000,"tol":1e-30}' >/dev/null 2>&1 || true
kill -0 "$PID" || fail "server died on a canceled client"

# One chaos-crashed query: probe the fault-step window, plant a crash inside
# it, and the answer must match the fault-free reference exactly.
ref=$(curl -s -X POST "http://$ADDR/query" -d '{"graph":"web","op":"bfs","source":3}')
steps=$(curl -s -X POST "http://$ADDR/query" \
  -d '{"graph":"web","op":"bfs","source":3,"chaos_seed":2}' \
  | sed -n 's/.*"fault_steps":\([0-9]*\).*/\1/p')
[ -n "$steps" ] && [ "$steps" -ge 4 ] || fail "chaos probe drew no fault steps"
crashed=$(curl -s -X POST "http://$ADDR/query" \
  -d "{\"graph\":\"web\",\"op\":\"bfs\",\"source\":3,\"chaos_seed\":2,\"crash_locale\":2,\"crash_step\":$((steps / 2))}")
echo "$crashed" | grep -q '"recoveries":' || fail "chaos crash never fired: $crashed"
ref_levels=$(echo "$ref" | sed -n 's/.*"levels":\(\[[^]]*\]\).*/\1/p')
crash_levels=$(echo "$crashed" | sed -n 's/.*"levels":\(\[[^]]*\]\).*/\1/p')
[ "$ref_levels" = "$crash_levels" ] || fail "chaos-recovered BFS diverged from fault-free"

# Mutate + flush advances the served epoch.
curl -fsS -X POST "http://$ADDR/graphs/web/mutate" \
  -d '{"rows":[0],"cols":[9],"vals":[1.0]}' >/dev/null || fail "mutate failed"
curl -fsS -X POST "http://$ADDR/graphs/web/flush" | grep -q '"epoch":1' || fail "flush did not commit epoch 1"
hdrs=$(curl -s -D - -o /dev/null -X POST "http://$ADDR/query" -d '{"graph":"web","op":"cc"}')
echo "$hdrs" | grep -qi 'X-GB-Epoch: 1' || fail "query not served from epoch 1"
echo "$hdrs" | grep -qi 'X-GB-Cache: miss' || fail "the first cc of epoch 1 was not a miss: epoch 0's replies outlived the flush"

# SSSP, a mutate that only lowers a weight (or inserts the edge), a flush, and
# SSSP again: the second run starts from the first one's distances.
sssp_start() { # source -> prints the X-GB-SSSP-Start header's value
  curl -s -D - -o /dev/null -X POST "http://$ADDR/query" -d "{\"graph\":\"web\",\"op\":\"sssp\",\"source\":$1}" \
    | tr -d '\r' | sed -n 's/^X-Gb-Sssp-Start: //ip'
}
[ "$(sssp_start 5)" = cold ] || fail "the first sssp from 5 did not run cold"
curl -fsS -X POST "http://$ADDR/graphs/web/mutate" \
  -d '{"rows":[5],"cols":[6],"vals":[0.5]}' >/dev/null || fail "lowering mutate failed"
curl -fsS -X POST "http://$ADDR/graphs/web/flush" | grep -q '"epoch":2' || fail "flush did not commit epoch 2"
[ "$(sssp_start 5)" = warm ] || fail "the sssp after a lowering flush did not start warm"

# A request body over the limit is refused before it is read through.
head -c 2000000 /dev/zero | tr '\0' 'x' | sed 's/^/{"graph":"/; s/$/","op":"cc"}/' >/tmp/serve_accept_big.$$
s=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/query" -H 'Expect:' --data-binary @/tmp/serve_accept_big.$$)
[ "$s" = 413 ] || fail "a 2 MB query body returned $s, want 413"
kill -0 "$PID" || fail "server died on an over-size body"

# Metrics carry the per-tenant outcomes and the reply cache's counters. (Read
# once into a variable: `curl | grep -q` under pipefail fails when grep leaves
# before curl has written everything.)
metrics=$(curl -fsS "http://$ADDR/metrics")
grep -q 'gbserve_queries_total{tenant="alice"' <<<"$metrics" || fail "per-tenant metrics missing"
grep -q 'outcome="deadline"' <<<"$metrics" || fail "deadline outcome missing from metrics"
grep -q '^gbserve_reply_cache_hits_total [1-9]' <<<"$metrics" || fail "reply-cache hits missing from metrics"
grep -q '^gbserve_sssp_runs_total{start="warm"} [1-9]' <<<"$metrics" || fail "the warm sssp run is missing from metrics"

# SIGTERM: readiness drops, in-flight work finishes, exit is clean.
kill -TERM "$PID"
for i in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$PID" 2>/dev/null && fail "server ignored SIGTERM"
wait "$PID" 2>/dev/null || true
grep -q 'drained clean' "$LOG" || fail "no clean drain in log"

echo "serve-accept: OK"
