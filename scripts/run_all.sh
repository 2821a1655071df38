#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every paper figure
# and table, and run the examples. The one-command reproduction entry point.
#
# Flags:
#   --sanitize   build/run everything under ASan+UBSan (asan-ubsan preset)
#   --lint       also run the standalone ssnlint pass over src/
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=0
LINT=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --lint) LINT=1 ;;
    *) echo "usage: $0 [--sanitize] [--lint]" >&2; exit 2 ;;
  esac
done

BUILD=build
if [ "$SANITIZE" = 1 ]; then
  BUILD=build-asan
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan
else
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD"
fi

echo "=== tests ==="
ctest --test-dir "$BUILD" --output-on-failure

if [ "$LINT" = 1 ]; then
  echo "=== ssnlint ==="
  "$BUILD"/tools/ssnlint src
fi

echo "=== benches (paper figures/tables + extensions, bench_perf) ==="
# The benches bench/CMakeLists.txt defines, so a stale binary that an older
# tree left in the build directory is not run.
for b in $(sed -n 's/^ssnkit_add_bench(\([a-z0-9_]*\) .*/\1/p' \
             bench/CMakeLists.txt) bench_perf; do
  echo "--- $b ---"
  "$BUILD/bench/$b"
done

echo "=== examples ==="
for e in quickstart io_ring_design power_rail_droop netlist_sim corner_analysis; do
  echo "--- $e ---"
  "$BUILD/examples/$e"
done

echo "=== CLI smoke ==="
"$BUILD"/tools/ssnkit estimate --n 8 --tr 0.1n --verify
