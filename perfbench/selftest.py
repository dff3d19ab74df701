#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute after the build).

For every workload it runs perfbench/run.py with --tiny, untraced and
traced, and checks that:
  * the run passes (exit 0, correct, failed == 0, attempted >= 1);
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json is printed with its unit;
  * the host factor is printed, and the traced run prints a positive
    tracing overhead;
  * the traced run's span file passes scripts/validate_trace.py.
Then it feeds a deliberately wrong pin and checks that the run reports
failed_frac > 0, correct == false and a non-zero exit.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BUILD = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric tables, read from BENCHMARK.json)

failures = []


def check(ok, msg):
    print(("ok   " if ok else "FAIL ") + msg)
    if not ok:
        failures.append(msg)


def bench(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, proc.stdout, result


def main():
    for w in run.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            rc, out, res = bench(w, trace)
            if w == "bfs-ldbc-1m" and trace == 0:
                bfs_out = out
            tag = f"{w} --trace {trace}"
            check(rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: passes")
            if res is None:
                continue
            check(set(res["metrics"]) == set(names)
                  and all(res["metrics"][n]["unit"] == u
                          for n, u in names.items()),
                  f"{tag}: every metric with its unit in the JSON line")
            rows = {p[0]: p for p in (l.split() for l in out.splitlines())
                    if len(p) >= 3}
            check(all(n in rows and rows[n][2] == u for n, u in names.items()),
                  f"{tag}: every metric printed by name with its unit")
            check("failed_frac" in out, f"{tag}: failed_frac printed")
            check("host_factor" in rows, f"{tag}: host factor printed")
            if trace:
                check("trace.overhead_s" in rows
                      and float(rows["trace.overhead_s"][1]) > 0,
                      f"{tag}: tracing overhead printed and positive")
            if trace:
                path = os.path.join(BUILD, f"trace-{w}-seed1.json")
                v = subprocess.run(
                    [sys.executable,
                     os.path.join(REPO, "scripts", "validate_trace.py"), path],
                    cwd=REPO, capture_output=True, text=True)
                check(v.returncode == 0, f"{tag}: span trace validates")

    # Pins taken from the tiny bfs run pass; the same pins with one wrong
    # value fail exactly the operations they pin wrongly.
    pins = {}
    for line in bfs_out.splitlines():
        if line.startswith("ok   "):
            op, values = line[5:].split(": ", 1)
            pins[op] = dict(kv.split("=", 1) for kv in values.split())
    path = os.path.join(BUILD, "selftest-pins.json")
    os.makedirs(BUILD, exist_ok=True)
    for wrong in (False, True):
        if wrong:
            pins["baseline"]["cycles"] = "1"
        with open(path, "w") as f:
            json.dump({"seed": 1, "workloads": {"bfs-ldbc-1m": pins}}, f)
        rc, out, res = bench("bfs-ldbc-1m", 0, ("--pins", path))
        frac = None
        for line in out.splitlines():
            if line.startswith("failed_frac"):
                frac = float(line.split()[1])
        if not wrong:
            check(rc == 0 and res is not None and res["correct"],
                  "correct pins: run passes")
            continue
        check(rc != 0, "wrong pin: non-zero exit")
        check(res is not None and not res["correct"]
              and res["failed"] == res["attempted"] // 2,
              "wrong pin: every baseline replay (only) counted failed")
        check(frac is not None and frac > 0, "wrong pin: failed_frac > 0")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
