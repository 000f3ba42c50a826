#!/usr/bin/env bash
# serve_smoke.sh — end-to-end crash-safety gate for cmd/t3dserve.
#
# Builds the service and the em3d batch harness, then proves the two
# serving invariants the design stands on:
#
#   1. Serving is bit-identical to batch: a job submitted over HTTP
#      must report the same digest as `em3d -digest` with the same
#      parameters.
#   2. The journal survives SIGKILL: a server killed with a job
#      in flight must, on restart over the same journal, replay the
#      job to completion with that same digest.
#   3. The job table stays bounded: after a run of cache hits longer
#      than the server's window of 1024 recent terminal jobs, /statusz
#      counts at most 1024 + the live jobs, the first hit's ID is gone
#      (404) and the last one answers done.
#   4. A memory-fault plan too large to hold is refused: a spec over
#      the flip cap answers 400, and /statusz counts no new submit or
#      job.
#
# Exits nonzero on any divergence. No arguments; runs from the repo
# root in a throwaway temp dir.
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${SERVE_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

say()  { printf 'serve-smoke: %s\n' "$*"; }
fail() { say "FAIL: $*"; exit 1; }

# get/post fetch a URL and collapse the pretty-printed JSON to one
# compact line so the field patterns below match.
get()  { curl -s "$1" | tr -d ' \n\t'; }
post() { curl -s "$BASE/jobs" -d "$1" | tr -d ' \n\t'; }
# field <json> <name> extracts a string field's value.
field() { printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p"; }
# num <json> <name> extracts the first numeric field of that name.
num() { printf '%s' "$1" | grep -o "\"$2\":[0-9]*" | head -n 1 | cut -d: -f2; }

# wait_ready polls /readyz until the server answers 200.
wait_ready() {
  for _ in $(seq 1 100); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz" || true)" = 200 ]; then
      return 0
    fi
    sleep 0.1
  done
  fail "server never became ready on $BASE"
}

# wait_done polls a job to its terminal state and prints its digest.
wait_done() {
  local id=$1 st
  for _ in $(seq 1 600); do
    st=$(get "$BASE/jobs/$id")
    case "$st" in
      *'"state":"done"'*)
        field "$st" digest
        return 0 ;;
      *'"state":"failed"'*)
        fail "job $id failed: $st" ;;
    esac
    sleep 0.1
  done
  fail "job $id never reached a terminal state"
}

say "building t3dserve and em3d"
go build -o "$TMP/t3dserve" ./cmd/t3dserve
go build -o "$TMP/em3d" ./cmd/em3d

# The smoke workload: big enough to be killed mid-flight, small enough
# to finish in seconds.
PES=4 NODES=120 DEGREE=8 ITERS=2 SEED=7
JOB_JSON=$(printf '{"app":"em3d","pes":%d,"nodes_per_pe":%d,"degree":%d,"iters":%d,"seed":%d}' \
  "$PES" "$NODES" "$DEGREE" "$ITERS" "$SEED")

say "computing batch reference digest"
WANT=$("$TMP/em3d" -digest -version Bulk -pes "$PES" -nodes "$NODES" \
  -degree "$DEGREE" -iters "$ITERS" -seed "$SEED" -remote 0)
say "batch digest: $WANT"

# --- Invariant 1: served digest == batch digest --------------------
"$TMP/t3dserve" -addr "127.0.0.1:$PORT" -journal "$TMP/smoke.journal" -workers 1 &
SRV_PID=$!
wait_ready

ID=$(field "$(post "$JOB_JSON")" id)
[ -n "$ID" ] || fail "submit returned no job id"
say "submitted $ID"

GOT=$(wait_done "$ID")
[ "$GOT" = "$WANT" ] || fail "served digest $GOT != batch digest $WANT"
say "served digest matches batch"

# --- Invariant 2: SIGKILL mid-job, restart, journal replays --------
SEED2=8
JOB2_JSON=$(printf '{"app":"em3d","pes":%d,"nodes_per_pe":%d,"degree":%d,"iters":%d,"seed":%d}' \
  "$PES" "$NODES" "$DEGREE" "$ITERS" "$SEED2")
WANT2=$("$TMP/em3d" -digest -version Bulk -pes "$PES" -nodes "$NODES" \
  -degree "$DEGREE" -iters "$ITERS" -seed "$SEED2" -remote 0)

ID2=$(field "$(post "$JOB2_JSON")" id)
[ -n "$ID2" ] || fail "second submit returned no job id"
say "submitted $ID2, SIGKILLing server mid-job"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

"$TMP/t3dserve" -addr "127.0.0.1:$PORT" -journal "$TMP/smoke.journal" -workers 1 &
SRV_PID=$!
wait_ready
say "restarted on the same journal"

GOT2=$(wait_done "$ID2")
[ "$GOT2" = "$WANT2" ] || fail "replayed digest $GOT2 != batch digest $WANT2"
say "journaled job replayed to the batch digest after SIGKILL"

# The first job's result must also have survived: resubmit and expect a
# cache hit with the original digest.
HIT=$(post "$JOB_JSON")
case "$HIT" in
  *'"cached":true'*) : ;;
  *) fail "resubmit after restart not a cache hit: $HIT" ;;
esac
[ "$(field "$HIT" digest)" = "$WANT" ] || fail "recovered cache digest $(field "$HIT" digest) != $WANT"
say "first job served from recovered cache"

# --- Invariant 3: cache hits do not grow the job table -------------
# One curl process posts the smoke spec once per URL of the glob.
HITS=1100 WINDOW=1024
IDS=$(curl -s -d "$JOB_JSON" "$BASE/jobs?hit=[1-$HITS]" | tr -d ' \n\t' |
  grep -o '"id":"j[0-9]*"' | cut -d'"' -f4)
[ "$(printf '%s\n' "$IDS" | wc -l)" -eq "$HITS" ] || fail "expected $HITS hit ids, got $(printf '%s\n' "$IDS" | wc -l)"
FIRST=$(printf '%s\n' "$IDS" | head -n 1)
LAST=$(printf '%s\n' "$IDS" | tail -n 1)
Z=$(get "$BASE/statusz")
JOBS=$(num "$Z" jobs) LIVE=$(( $(num "$Z" queued) + $(num "$Z" running) ))
[ -n "$JOBS" ] || fail "/statusz reports no jobs count: $Z"
[ "$JOBS" -le $((WINDOW + LIVE)) ] || fail "/statusz jobs $JOBS > $WINDOW + $LIVE live after $HITS hits"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/jobs/$FIRST")
[ "$CODE" = 404 ] || fail "first hit $FIRST answered HTTP $CODE, want 404 (aged out of the window)"
case "$(get "$BASE/jobs/$LAST")" in
  *'"state":"done"'*) : ;;
  *) fail "last hit $LAST not done" ;;
esac
say "$HITS cache hits: job table $JOBS (window $WINDOW + $LIVE live), first hit 404, last done"

# --- Invariant 4: an over-cap memory-fault plan is refused ----------
# 8 PEs x 3300 flips/PE/Mcycle over the default 5M-cycle horizon is
# 132,000 flips, just over the 131,072 cap.
OVER='{"app":"em3d","pes":8,"seed":9,"fault":{"mem_fault_rate":3300}}'
Z=$(get "$BASE/statusz")
SUBMITS=$(num "$Z" submits) JOBS=$(num "$Z" jobs)
CODE=$(curl -s -o "$TMP/over.json" -w '%{http_code}' "$BASE/jobs" -d "$OVER")
[ "$CODE" = 400 ] || fail "over-cap fault spec answered HTTP $CODE, want 400: $(cat "$TMP/over.json")"
grep -q 'serve: fault: ' "$TMP/over.json" || fail "over-cap refusal does not name the fault spec: $(cat "$TMP/over.json")"
Z=$(get "$BASE/statusz")
[ "$(num "$Z" submits)" = "$SUBMITS" ] || fail "over-cap spec counted as a submit ($SUBMITS -> $(num "$Z" submits))"
[ "$(num "$Z" jobs)" = "$JOBS" ] || fail "over-cap spec added a job ($JOBS -> $(num "$Z" jobs))"
say "over-cap fault plan refused with 400; /statusz unchanged ($SUBMITS submits, $JOBS jobs)"

kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
say "PASS"
