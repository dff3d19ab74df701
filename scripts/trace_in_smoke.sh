#!/usr/bin/env bash
# Boundary check for bad CLI input: a corrupt --trace-in file, a malformed
# or non-numeric flag, or an unknown option must be rejected with a one-line
# `graphpim_sim: error: ...` (SimError caught at main, exit 1), never a
# `fatal:` exit or an abort deep inside Config, the loader or the replay.
#
# Saves a small trace, damages one field per case, and replays each copy;
# then runs each bad flag on its own.
#
# Usage: scripts/trace_in_smoke.sh [path/to/graphpim_sim]
set -u

SIM="${1:-build/tools/graphpim_sim}"
if [[ ! -x "$SIM" ]]; then
  echo "trace_in_smoke: $SIM not found or not executable" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/graphpim_trace_in.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

ARGS=(--workload=bfs --profile=ldbc --vertices=1024 --opcap=20000
      --threads=4 --seed=1 --mode=baseline --jobs=1)
"$SIM" "${ARGS[@]}" --trace-out="$WORK/good.bin" > /dev/null || {
  echo "trace_in_smoke: FAIL — could not save the reference trace" >&2
  exit 1
}

# SaveTrace layout: 8-byte magic, u64 stream count, then per stream a u64
# record count and 16-byte records. Stream 0's count is at byte 16 and its
# record 0 at byte 24, whose type/comp/aop bytes are 32/33/34.
fail=0
check() {  # name, byte offset ("" = no such file), byte value, error text
  local name="$1" offset="$2" value="$3" want="$4"
  local bad="$WORK/$name.bin"
  if [[ -n "$offset" ]]; then
    cp "$WORK/good.bin" "$bad"
    printf "\\x$value" | dd of="$bad" bs=1 seek="$offset" conv=notrunc \
        status=none
  fi
  "$SIM" "${ARGS[@]}" --trace-in="$bad" > /dev/null 2> "$WORK/$name.err"
  local rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q "^graphpim_sim: error: .*$bad" \
      "$WORK/$name.err" || ! grep -q "$want" "$WORK/$name.err"; then
    echo "trace_in_smoke: FAIL — $name: exit $rc, stderr:" >&2
    cat "$WORK/$name.err" >&2
    fail=1
  else
    echo "   $name: rejected (exit 1)"
  fi
}
check missing "" "" "cannot open"
check bad_magic 0 00 "not a GraphPIM trace"
check bad_count 23 7f "stream 0 claims"
check bad_type 32 ff "stream 0 record 0 has type 255"
check bad_comp 33 ff "stream 0 record 0 .*out of range"
check bad_aop 34 ff "stream 0 record 0 .*out of range"
check extra_barrier 32 05 "barriers"

reject() {  # name, error text, graphpim_sim arguments...
  local name="$1" want="$2"
  shift 2
  "$SIM" "$@" > /dev/null 2> "$WORK/$name.err"
  local rc=$?
  if [[ $rc -ne 1 ]] || [[ "$(wc -l < "$WORK/$name.err")" -ne 1 ]] ||
      ! grep -q "^graphpim_sim: error: .*$want" "$WORK/$name.err"; then
    echo "trace_in_smoke: FAIL — $name: exit $rc, stderr:" >&2
    cat "$WORK/$name.err" >&2
    fail=1
  else
    echo "   $name: rejected (exit 1)"
  fi
}

# A well-formed trace with more streams than the machine has cores.
"$SIM" "${ARGS[@]/--threads=4/--threads=8}" --trace-out="$WORK/wide.bin" \
    > /dev/null || { echo "trace_in_smoke: FAIL — could not save" >&2; exit 1; }
reject wide "trace has 8 streams" "${ARGS[@]}" --trace-in="$WORK/wide.bin"

reject help "malformed argument '--help'" --help
reject non_numeric "'abc' is not an unsigned integer" --vertices=abc
reject negative "'-5' is not an unsigned integer" --vertices=-5 --opcap=1000
reject too_many_vertices "4294967297 is above its maximum 4294967295" \
    --vertices=4294967297 --opcap=1000
reject unknown_option "unknown option '--shards'" --shards=4
exit $fail
