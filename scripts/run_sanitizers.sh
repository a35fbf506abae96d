#!/usr/bin/env bash
# Sanitizer sweep: build the asan (ASan+UBSan) and tsan preset trees and run
# the *full* test suite in each. The tsan test preset filters to the
# concurrency/telemetry/replay labels; this sweep runs every label, so a race
# in a bench or functional test shows up too. UBSan reports are made fatal so
# they fail the test that triggers them instead of scrolling past.
#
# Usage: scripts/run_sanitizers.sh [asan|tsan]...   (default: asan tsan)
# Each tree's ctest log goes to build-<tree>/sanitizers.log; the script prints
# one summary line per tree plus the names of the failing tests, and exits
# nonzero if any tree had a failure.
set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
trees=("$@")
[[ ${#trees[@]} -eq 0 ]] && trees=(asan tsan)

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

status=0
report=()
for tree in "${trees[@]}"; do
  case "${tree}" in
    asan | tsan) ;;
    *)
      echo "run_sanitizers: unknown tree '${tree}' (want asan or tsan)" >&2
      exit 2
      ;;
  esac
  if ! cmake --preset "${tree}" > /dev/null || ! cmake --build --preset "${tree}" -j "${JOBS}"; then
    report+=("${tree}: build failed")
    status=1
    continue
  fi
  log="build-${tree}/sanitizers.log"
  # Two test processes at a time, as the sanitizer test presets do: the
  # instrumented binaries are memory-hungry. --test-dir (not --preset) so no
  # label filter applies.
  ctest --test-dir "build-${tree}" --output-on-failure -j 2 > "${log}" 2>&1 || status=1
  report+=("${tree}: $(grep -E 'tests passed' "${log}" | tail -1)")
  while IFS= read -r failed; do
    report+=("  ${failed}")
  done < <(sed -n '/The following tests FAILED/,$p' "${log}" | grep -E '^[[:space:]]+[0-9]+ - ')
done

echo "=== sanitizer summary ==="
printf '%s\n' "${report[@]}"
exit "${status}"
