#!/usr/bin/env bash
# Boundary check for bad CLI input: a corrupt --trace-in file, a malformed
# or non-numeric flag, an unknown option or an unwritable output path must
# be rejected with a one-line `graphpim_sim: error: ...` (SimError caught at
# main, exit 1), never a `fatal:` exit or an abort deep inside Config, the
# loader or the replay. Output paths are checked before any replay.
#
# Saves a small trace, damages one field per case, and replays each copy;
# then runs each bad flag on its own, on graphpim_sim, graphpim_sweep and
# graphpim_serve, and hands graphpim_compare a file nested a million
# levels deep and bad tolerance and row-count flags.
#
# Usage: scripts/trace_in_smoke.sh [path/to/graphpim_sim]
#            [path/to/graphpim_sweep] [path/to/graphpim_serve]
#            [path/to/graphpim_compare]
set -u

SIM="${1:-build/tools/graphpim_sim}"
SWEEP="${2:-build/tools/graphpim_sweep}"
SERVE="${3:-build/tools/graphpim_serve}"
COMPARE="${4:-build/tools/graphpim_compare}"
for bin in "$SIM" "$SWEEP" "$SERVE" "$COMPARE"; do
  if [[ ! -x "$bin" ]]; then
    echo "trace_in_smoke: $bin not found or not executable" >&2
    exit 1
  fi
done

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

reject() {  # name, error text, arguments... (run by $BIN, default $SIM)
  local name="$1" want="$2" bin="${BIN:-$SIM}"
  shift 2
  # The timeout turns a value that hangs the replay into a failure.
  timeout 120 "$bin" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local rc=$?
  if [[ $rc -ne 1 ]] || [[ "$(wc -l < "$WORK/$name.err")" -ne 1 ]] ||
      ! grep -q "^$(basename "$bin"): error: .*$want" "$WORK/$name.err"; then
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
reject sweep_flag "unknown option '--sweep'" --sweep='workloads=bfs'
reject single_run_csv "unknown option '--csv'" --csv="$WORK/out.csv"
reject jobs_overflow "99999999999999999999 is out of range" \
    --jobs=99999999999999999999
reject jobs_wrap "4294967297 is out of range" --jobs=4294967297
# Doubles are strict and finite: nan would pass a range check (and hang
# the replay for linkbw).
for knob in linkbw link-ber trace-sample-rate; do
  reject "nan_$knob" "config key '$knob': 'nan' is not finite" \
      "${ARGS[@]}" --$knob=nan
done

# An unwritable output path must fail before the run starts: the driver
# prints its first stdout line only once the graph is built.
reject_early() {  # as reject, and nothing may reach stdout
  reject "$@"
  if [[ -s "$WORK/$1.out" ]]; then
    echo "trace_in_smoke: FAIL — $1: the run started before the error" >&2
    fail=1
  fi
}
NODIR="$WORK/no_such_dir"
for sink in json metrics-out timeline-out; do
  reject_early "sim_$sink" "config key '$sink': cannot open '$NODIR/out'" \
      "${ARGS[@]}" --$sink="$NODIR/out"
done
for sink in json csv det-csv; do
  BIN="$SWEEP" reject_early "sweep_$sink" \
      "config key '$sink': cannot open '$NODIR/out'" \
      --workloads=bfs --vertices=1024 --opcap=20000 --threads=4 \
      --modes=baseline --jobs=1 --$sink="$NODIR/out"
done
BIN="$SWEEP" reject sweep_jobs_overflow "99999999999999999999 is out of range" \
    --jobs=99999999999999999999
BIN="$SWEEP" reject sweep_timeout_ms "unknown option '--timeout-ms'" \
    --timeout-ms=5
SERVE_ARGS=(--vertices=1024 --requests=8 --jobs=1)
BIN="$SERVE" reject serve_empty_slo "config key 'slo-ns': '' is not a number" \
    "${SERVE_ARGS[@]}" --slo-ns=
BIN="$SERVE" reject serve_nan_dispatch \
    "config key 'dispatch-ns': 'nan' is not finite" \
    "${SERVE_ARGS[@]}" --dispatch-ns=nan
BIN="$SERVE" reject serve_qps_trailing "--qps-grid: '1e6abc' is not a number" \
    "${SERVE_ARGS[@]}" --qps-grid=1e6abc
BIN="$SERVE" reject serve_qps_empty "--qps-grid needs at least one value" \
    "${SERVE_ARGS[@]}" --qps-grid=,
BIN="$SERVE" reject serve_mix_trailing \
    "weight of kind 'bfs' in mix spec: '1x' is not a number" \
    "${SERVE_ARGS[@]}" --mix=bfs=1x
for cubes in 1.5 0; do
  BIN="$SERVE" reject "serve_cubes_$cubes" \
      "--num-cubes entries must be positive integers, got $cubes" \
      "${SERVE_ARGS[@]}" --num-cubes=$cubes
done
for sink in metrics-out timeline-out; do
  BIN="$SERVE" reject_early "serve_$sink" \
      "config key '$sink': cannot open '$NODIR/out' for writing" \
      --vertices=1024 --requests=8 --qps-grid=1e6 --jobs=1 \
      --$sink="$NODIR/out"
done
# Nesting past the JSON reader's depth bound is a one-line error, not a
# stack overflow.
echo '{"a":1}' > "$WORK/ok.json"
head -c 1000000 /dev/zero | tr '\0' '[' > "$WORK/deep.json"
BIN="$COMPARE" reject compare_deep "malformed JSON at offset 64" \
    "$WORK/ok.json" "$WORK/deep.json"
# Tolerances are strict and finite (nan would flag identical files as a
# regression), and --max-rows is an unsigned integer.
BIN="$COMPARE" reject compare_nan_tolerance "--tolerance: 'nan' is not finite" \
    "$WORK/ok.json" "$WORK/ok.json" --tolerance=nan
BIN="$COMPARE" reject compare_max_rows \
    "--max-rows: '1e30' is not an unsigned integer" \
    "$WORK/ok.json" "$WORK/ok.json" --max-rows=1e30
exit $fail
