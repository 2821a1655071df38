#!/usr/bin/env bash
# End-to-end smoke test for the serve daemon (docs/SERVING.md), mirroring
# what an operator actually does:
#
#   leg 1  stdin mode: repeated request answers from the cache, a restarted
#          daemon warms the cache from its crash-safe spill file
#   leg 2  socket mode: start the daemon, fire closed-loop estimate load
#          from an inline client plus deliberately slow requests, SIGTERM
#          the daemon mid-load, and assert the clean-drain contract:
#            - the load client got "ok":true answers
#            - the daemon exits 0
#            - every line it printed is valid JSON (checked with jq)
#            - stats report accepted == responded (no accepted request lost)
#   leg 3  process isolation: run a stream under --isolate process, kill -9
#          a worker mid-load, and assert the containment contract: daemon
#          exits 0, every request answered exactly once (typed SSN-E069 at
#          worst), the dead worker noticed (SSN-W075) and respawned
#   leg 4  process-mode deadline: --request-deadline reaches the worker, so
#          a slow request with no deadline of its own is cancelled
#          cooperatively (SSN-E066, as in thread mode) and the watchdog
#          never has to SIGKILL anything
#
# The SIGTERM may land after the load already finished on a fast machine —
# the drain is then trivial but still exercised end to end, so the
# assertions hold either way.
#
# Usage: scripts/serve_smoke.sh [path/to/ssnkit]
set -euo pipefail
cd "$(dirname "$0")/.."

SSNKIT=${1:-build/tools/ssnkit}
if [ ! -x "$SSNKIT" ]; then
  echo "serve_smoke: $SSNKIT not built" >&2
  exit 2
fi

WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -KILL "$SERVE_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "=== leg 1: stdin mode, cache + warm restart ==="
REQ='{"id":"r1","cmd":"estimate","n":8,"tr":1e-10}'
# One pool thread: this leg checks that a repeated request is answered from
# the cache, which needs r1's answer cached before r2 is looked up. With
# more threads r1 and r2 can run concurrently and both miss, so the check
# would depend on scheduling. Concurrency is covered by leg 2.
printf '%s\n%s\n' "$REQ" "${REQ/r1/r2}" \
  | "$SSNKIT" serve --threads 1 --cache-file "$WORK/spill" > "$WORK/leg1a.log"
grep -q '"id":"r1","ok":true' "$WORK/leg1a.log"
grep -q '"id":"r2","ok":true,"cached":true' "$WORK/leg1a.log"
[ -f "$WORK/spill" ] || { echo "serve_smoke: no cache spill written" >&2; exit 1; }
printf '%s\n' "${REQ/r1/r3}" \
  | "$SSNKIT" serve --cache-file "$WORK/spill" > "$WORK/leg1b.log"
grep -q '"id":"r3","ok":true,"cached":true' "$WORK/leg1b.log" \
  || { echo "serve_smoke: restarted daemon did not warm from spill" >&2
       cat "$WORK/leg1b.log" >&2; exit 1; }
echo "cache hit + warm restart OK"

echo "=== leg 2: socket mode, SIGTERM mid-load ==="
SOCK=$WORK/ssnkit.sock
"$SSNKIT" serve --socket "$SOCK" --queue 128 --drain 2 \
    > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "serve_smoke: socket never appeared" >&2
                    cat "$WORK/serve.log" >&2; exit 1; }

# Closed-loop load over the socket: 4 connections, each sending one
# estimate (a distinct tr per request, so none is a cache hit) and reading
# its answer before sending the next. Once the drain starts, connections are
# legitimately shed or closed, so a connection just stops there. The client
# prints how many answers were "ok":true.
python3 - "$SOCK" > "$WORK/load.log" 2>&1 <<'EOF' &
import socket, sys, threading
ok = [0] * 4
def load(c):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    replies = s.makefile("rb")
    try:
        for i in range(25000):
            s.sendall(b'{"id":"c%d-%d","cmd":"estimate","n":%d,"tr":%.9e}\n'
                      % (c, i, 2 + i % 8, 1e-10 * (1 + 1e-6 * (4 * i + c))))
            line = replies.readline()
            if not line:
                break
            ok[c] += b'"ok":true' in line
    except (BrokenPipeError, ConnectionResetError):
        pass
clients = [threading.Thread(target=load, args=(c,)) for c in range(4)]
for t in clients:
    t.start()
for t in clients:
    t.join()
print(sum(ok))
EOF
LOAD_PID=$!
# Let the load run before the slow requests below take every pool thread;
# behind them, the load client's next request waits until the drain.
sleep 0.5

# Deliberately slow requests so the SIGTERM reliably has in-flight work to
# drain (and, past the 2 s drain deadline, to cancel with SSN-E066): 16
# pipelined simulated sweeps over a 1 us ramp with a lightly damped
# package, ~0.3 s each on a 2.0 GHz core (distinct max_n, so none is a
# cache hit). Their cost is transient time steps, which do not shrink with
# the driver count: the bench simulates each uniform bank as one driver.
python3 - "$SOCK" > "$WORK/slow.log" 2>&1 <<'EOF' &
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
count = 16
s.sendall(b"".join(
    b'{"id":"slow%d","cmd":"sweep-n","max_n":%d,"golden":"bsim",'
    b'"tr":1e-6,"l":1e-7,"c":1e-10}\n' % (i, 64 - i)
    for i in range(count)))
buf = b""
while buf.count(b"\n") < count:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
sys.stdout.write(buf.decode())
EOF
SLOW_PID=$!

sleep 1
kill -TERM "$SERVE_PID" 2> /dev/null
set +e
wait "$SERVE_PID"
RC=$?
SERVE_PID=""
wait "$LOAD_PID" 2> /dev/null
wait "$SLOW_PID" 2> /dev/null
set -e

if [ "$RC" != 0 ]; then
  echo "serve_smoke: daemon exited $RC on SIGTERM (want clean drain, 0)" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
echo "daemon drained and exited 0"

# Every daemon output line must be a complete JSON object.
while IFS= read -r line; do
  [ -z "$line" ] && continue
  echo "$line" | jq -e . > /dev/null \
    || { echo "serve_smoke: non-JSON daemon output: $line" >&2; exit 1; }
done < "$WORK/serve.log"

# The slow client must have received valid JSON response lines (ok, shed,
# or the drain's SSN-E066 — but never silence or garbage).
if [ -s "$WORK/slow.log" ]; then
  jq -e . "$WORK/slow.log" > /dev/null \
    || { echo "serve_smoke: slow client got garbage:" >&2
         cat "$WORK/slow.log" >&2; exit 1; }
else
  echo "serve_smoke: slow client got no response" >&2
  exit 1
fi

# The drain contract: every accepted request was answered.
STATS=$(grep '"event":"stats"' "$WORK/serve.log" | tail -1)
[ -n "$STATS" ] || { echo "serve_smoke: no stats line" >&2; exit 1; }
ACCEPTED=$(echo "$STATS" | jq -r .accepted)
RESPONDED=$(echo "$STATS" | jq -r .responded)
echo "stats: accepted=$ACCEPTED responded=$RESPONDED"
if [ "$ACCEPTED" != "$RESPONDED" ]; then
  echo "serve_smoke: lost accepted requests ($ACCEPTED accepted, $RESPONDED responded)" >&2
  exit 1
fi
# The slow client alone makes accepted >= 1, so check the load client's own
# answers: a load client that never connected fails here.
LOAD_OK=$(tail -n 1 "$WORK/load.log")
if ! [ "$LOAD_OK" -ge 1 ] 2> /dev/null; then
  echo "serve_smoke: load client got no \"ok\":true answer" >&2
  cat "$WORK/load.log" >&2
  exit 1
fi
echo "load client: $LOAD_OK ok answers"

echo "=== leg 3: process isolation, kill -9 a worker mid-load ==="
# Release builds have no fault hooks, so the only chaos here is real: a raw
# kill -9 of a live worker. The supervisor must notice (SSN-W075), respawn
# the slot, degrade at most the in-flight request (typed SSN-E069), and
# answer every request exactly once.
# Every body is unique (tr varies per request) so nothing is served from
# the cache and the dead worker's slot is certain to be dispatched to.
python3 - > "$WORK/proc_stream.jsonl" <<'EOF'
for i in range(1000):
    print('{"id":"p%04d","cmd":"estimate","n":%d,"tr":%.6e}'
          % (i, 2 + i % 8, 1e-10 * (1 + 1e-4 * i)))
EOF
mkfifo "$WORK/proc_feed"
"$SSNKIT" serve --queue 1024 --isolate process --workers 2 \
    < "$WORK/proc_feed" > "$WORK/proc.log" &
SERVE_PID=$!
# Throttle the feed so the kill lands while requests are still arriving.
awk '{print; fflush(); if (NR % 100 == 0) system("sleep 0.05")}' \
    "$WORK/proc_stream.jsonl" > "$WORK/proc_feed" &
FEED_PID=$!
sleep 0.3
VICTIM=$(grep -m1 '"event":"worker-spawn"' "$WORK/proc.log" \
         | grep -o '"pid":[0-9]*' | grep -o '[0-9]*' || true)
if [ -n "$VICTIM" ]; then
  kill -9 "$VICTIM" 2> /dev/null || true
fi
set +e
wait "$FEED_PID"
wait "$SERVE_PID"
RC=$?
set -e
SERVE_PID=""
if [ "$RC" != 0 ]; then
  echo "serve_smoke: supervised daemon exited $RC (want 0: a worker death" >&2
  echo "must never take the daemon down)" >&2
  tail "$WORK/proc.log" >&2
  exit 1
fi
while IFS= read -r line; do
  [ -z "$line" ] && continue
  echo "$line" | jq -e . > /dev/null \
    || { echo "serve_smoke: non-JSON daemon output: $line" >&2; exit 1; }
done < "$WORK/proc.log"
ANSWERED=$(grep -c '"id":"p' "$WORK/proc.log")
if [ "$ANSWERED" != 1000 ]; then
  echo "serve_smoke: $ANSWERED/1000 requests answered in process mode" >&2
  exit 1
fi
SPAWNS=$(grep -c '"event":"worker-spawn"' "$WORK/proc.log" || true)
DEATHS=$(grep -c '"code":"SSN-W075"' "$WORK/proc.log" || true)
if [ "$SPAWNS" -lt 2 ]; then
  echo "serve_smoke: worker pool never spawned (spawns=$SPAWNS)" >&2
  exit 1
fi
if [ -n "$VICTIM" ] && [ "$DEATHS" -lt 1 ]; then
  echo "serve_smoke: killed worker $VICTIM but no SSN-W075 was emitted" >&2
  exit 1
fi
# Any failure must be typed with a supervision/admission code — never
# silence, never an untyped error.
BADCODES=$(jq -r 'select(has("id") and (.ok != true)) | .code' "$WORK/proc.log" \
           | grep -v -E '^SSN-E06[4689]$' || true)
if [ -n "$BADCODES" ]; then
  echo "serve_smoke: unexpected failure codes in process mode: $BADCODES" >&2
  exit 1
fi
PSTATS=$(grep '"event":"stats"' "$WORK/proc.log" | tail -1)
PACCEPTED=$(echo "$PSTATS" | jq -r .accepted)
PRESPONDED=$(echo "$PSTATS" | jq -r .responded)
if [ "$PACCEPTED" != "$PRESPONDED" ]; then
  echo "serve_smoke: process mode lost accepted requests" \
       "($PACCEPTED accepted, $PRESPONDED responded)" >&2
  exit 1
fi
echo "process isolation OK (spawns=$SPAWNS deaths=$DEATHS," \
     "$PACCEPTED/$PACCEPTED answered)"

echo "=== leg 4: process mode, --request-deadline cancels cooperatively ==="
# The slow sweep from leg 2 (~0.3 s), sent twice with no deadline of its
# own: the daemon's 50 ms default is the budget, so each answers SSN-E066
# from its worker well inside the watchdog's 50 ms + 50 ms kill time.
SLOW='"cmd":"sweep-n","max_n":64,"golden":"bsim","tr":1e-6,"l":1e-7,"c":1e-10'
printf '{"id":"late1",%s}\n{"id":"late2",%s}\n' "$SLOW" "$SLOW" \
  | "$SSNKIT" serve --isolate process --request-deadline 0.05 --grace 0.05 \
      > "$WORK/deadline.log"
LATE=$(grep -c '"id":"late[12]","ok":false,"code":"SSN-E066"' \
       "$WORK/deadline.log" || true)
DSTATS=$(grep '"event":"stats"' "$WORK/deadline.log" | tail -1)
if [ "$LATE" != 2 ] \
   || [ "$(echo "$DSTATS" | jq -r .worker_timeouts)" != 0 ] \
   || [ "$(echo "$DSTATS" | jq -r .quarantined)" != 0 ] \
   || grep -q '"code":"SSN-W075"' "$WORK/deadline.log"; then
  echo "serve_smoke: process-mode deadline did not cancel cooperatively" >&2
  cat "$WORK/deadline.log" >&2
  exit 1
fi
echo "process-mode deadline OK (2 x SSN-E066, no watchdog kill)"

echo "serve_smoke: PASS (clean drain, $ACCEPTED/$ACCEPTED accepted requests answered)"
