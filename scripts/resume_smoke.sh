#!/usr/bin/env bash
# Interrupt-resume smoke test for the job lifecycle layer, mirroring what a
# user actually does: start a journaled simulator-backed Monte Carlo batch,
# SIGTERM it mid-flight, resume from the journal, and require the resumed
# run's CSV, completed journal and printed trust / resilience lines to be
# byte-identical to an uninterrupted run's.
#
# Exit codes from the CLI under test: 0 = complete, 75 = interrupted with
# partial results flushed (anything else is a failure here). The SIGTERM may
# land after the batch already finished on a fast machine — that run then
# exits 0 and the resume trivially restores every sample, which still
# exercises the journal round-trip, so both codes are accepted for the
# interrupted leg.
#
# Usage: scripts/resume_smoke.sh [path/to/ssnkit]   (default: build/tools/ssnkit)
set -euo pipefail
cd "$(dirname "$0")/.."

SSNKIT=${1:-build/tools/ssnkit}
if [ ! -x "$SSNKIT" ]; then
  echo "resume_smoke: $SSNKIT not built" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# ~1.3 ms per sample: a 3000-sample batch runs ~4 s, so a SIGTERM after
# ~1 s reliably lands mid-batch (and the comment at the top covers the
# fast-machine case where it doesn't).
SAMPLES=3000
COMMON=(mc --sim --samples "$SAMPLES" --seed 4242)

echo "=== clean run ==="
"$SSNKIT" "${COMMON[@]}" --journal "$WORK/clean.journal" \
    --out "$WORK/clean.csv" > "$WORK/clean.log"

echo "=== interrupted run (SIGTERM after ~1s) ==="
set +e
"$SSNKIT" "${COMMON[@]}" --journal "$WORK/part.journal" \
    --out "$WORK/part.csv" > "$WORK/part.log" &
PID=$!
sleep 1
kill -TERM "$PID" 2> /dev/null
wait "$PID"
RC=$?
set -e
if [ "$RC" != 75 ] && [ "$RC" != 0 ]; then
  echo "resume_smoke: interrupted run exited $RC (want 75 or 0)" >&2
  cat "$WORK/part.log" >&2
  exit 1
fi
echo "interrupted leg exited $RC"
grep -c '^item ' "$WORK/part.journal" | sed 's/^/journaled samples: /'

echo "=== resumed run ==="
"$SSNKIT" "${COMMON[@]}" --resume "$WORK/part.journal" \
    --out "$WORK/resumed.csv" > "$WORK/resumed.log"
grep resumed "$WORK/resumed.log" || true

echo "=== compare ==="
if ! cmp -s "$WORK/clean.csv" "$WORK/resumed.csv"; then
  echo "resume_smoke: resumed CSV differs from the clean run" >&2
  diff "$WORK/clean.csv" "$WORK/resumed.csv" >&2 || true
  exit 1
fi
if ! cmp -s "$WORK/clean.journal" "$WORK/part.journal"; then
  echo "resume_smoke: completed journal differs from the clean run's" >&2
  diff "$WORK/clean.journal" "$WORK/part.journal" >&2 || true
  exit 1
fi
# The batch verdict and the fidelity summary (with its per-sample notes)
# are replayed from journaled fields, so they must not depend on which
# samples were restored.
health() { grep -E '^(trust|resilience): |^  ' "$1" || true; }
if [ "$(health "$WORK/clean.log")" != "$(health "$WORK/resumed.log")" ]; then
  echo "resume_smoke: resumed trust/resilience lines differ from the clean run's" >&2
  diff <(health "$WORK/clean.log") <(health "$WORK/resumed.log") >&2 || true
  exit 1
fi
health "$WORK/resumed.log"
echo "resume_smoke: PASS (resumed output bit-identical to the clean run)"
