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
if "$BENCH" all --vertices=1024 --opcap=20000 --jobs=2 > "$WORK/all.out" \
    2> "$WORK/all.err"; then
  echo "   all: $(grep -c '^GraphPIM reproduction' "$WORK/all.out") benches ran"
else
  echo "bench_smoke: FAIL — 'all' exited non-zero, stderr:" >&2
  cat "$WORK/all.err" >&2
  fail=1
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
