#!/usr/bin/env bash
# Smoke test for graphpim_bench: every figure/table bench runs to the end at
# a tiny size, and a bad bench name or flag ends in exactly one
# `graphpim_bench: error: ...` line with exit 1 (never an abort or a
# silently ignored flag).
#
# Usage: scripts/bench_smoke.sh [path/to/graphpim_bench]
set -u

BENCH="${1:-build/bench/graphpim_bench}"
if [[ ! -x "$BENCH" ]]; then
  echo "bench_smoke: $BENCH not found or not executable" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/graphpim_bench_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail=0
# Every bench runs to the end, and its output is the same at any --jobs
# (only the "(host)" wall-time lines may differ).
for jobs in 1 4; do
  if "$BENCH" all --vertices=1024 --opcap=20000 --jobs=$jobs \
      > "$WORK/all_j$jobs.out" 2> "$WORK/all_j$jobs.err"; then
    echo "   all --jobs=$jobs: $(grep -c '^GraphPIM reproduction' \
        "$WORK/all_j$jobs.out") benches ran"
  else
    echo "bench_smoke: FAIL — 'all --jobs=$jobs' exited non-zero, stderr:" >&2
    cat "$WORK/all_j$jobs.err" >&2
    fail=1
  fi
done
if ! diff <(grep -v '(host)' "$WORK/all_j1.out") \
    <(grep -v '(host)' "$WORK/all_j4.out") > "$WORK/all.diff"; then
  echo "bench_smoke: FAIL — 'all' output differs between --jobs=1 and 4:" >&2
  head -20 "$WORK/all.diff" >&2
  fail=1
else
  echo "   all: identical at --jobs=1 and --jobs=4"
fi

# --pmem-enable=1 must reach the bench's trace: gup generates its
# flush/fence discipline, so its IPC row changes.
gup_row() {  # fig01_ipc arguments...
  "$BENCH" fig01_ipc --vertices=1024 --opcap=20000 --jobs=1 "$@" |
      grep '^gup '
}
plain="$(gup_row)"
persist="$(gup_row --pmem-enable=1)"
if [[ -z "$plain" || "$plain" == "$persist" ]]; then
  echo "bench_smoke: FAIL — fig01_ipc gup row ignores --pmem-enable=1:" >&2
  echo "  off: $plain" >&2
  echo "  on:  $persist" >&2
  fail=1
else
  echo "   pmem_enable: gup row '$plain' -> '$persist'"
fi

reject() {  # name, error text, graphpim_bench arguments...
  local name="$1" want="$2"
  shift 2
  "$BENCH" "$@" > /dev/null 2> "$WORK/$name.err"
  local rc=$?
  if [[ $rc -ne 1 ]] || [[ "$(wc -l < "$WORK/$name.err")" -ne 1 ]] ||
      ! grep -q "^graphpim_bench: error: .*$want" "$WORK/$name.err"; then
    echo "bench_smoke: FAIL — $name: exit $rc, stderr:" >&2
    cat "$WORK/$name.err" >&2
    fail=1
  else
    echo "   $name: rejected (exit 1)"
  fi
}

reject missing_name "missing bench name (one of: all, fig01_ipc," --vertices=1024
reject unknown_name "unknown bench 'fig99' (one of: all, fig01_ipc," fig99
reject typo_flag "unknown option '--vertcies'" fig07_speedup --vertcies=1024
reject bad_threads "'abc' is not an integer" fig07_speedup --threads=abc
reject jobs_overflow "99999999999999999999 is out of range" \
    fig07_speedup --jobs=99999999999999999999
exit $fail
