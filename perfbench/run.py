#!/usr/bin/env python3
"""Layer-timed benchmark of the GraphPIM simulator.

Builds the perfbench harness (perfbench/CMakeLists.txt, compiled from the
simulator sources under src/) on first use, runs one workload for a fixed
host-time budget, checks every simulated output, and prints the metrics.

    python3 perfbench/run.py --workload bfs-ldbc-1m --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (medians over the run's iterations,
scaled to the reference host speed, see host_factors);
with --trace 1 they are the per-layer ones, and the span trace is written
to <build dir>/trace-<workload>-seed<seed>.json.

An operation is one mode replay or one serve point. It fails when it throws,
when its simulated outputs differ from perfbench/pins.json (pinned for the
default seed), or when they differ between iterations of the same run. The
exit code is 0 only when every operation passed.

Options beyond the benchmark contract: --tiny runs a smoke-test scale
(no pins apply unless --pins names a file), --pins FILE replaces
perfbench/pins.json. See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

ROTATE_S = 0.25

# The workloads and the scored metrics, with their units, are the ones
# BENCHMARK.json lists.
with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-layer values the traced run prints but BENCHMARK.json does not score:
# they exist only on the workloads that run the layer, or they are not
# stable positive quantities.
PRINTED_ONLY = {
    "serve.graph_s": "s",
    "serve.point_s": "s",
    "serve.batches": "count",
    "serve.replayed_ops": "count",
    "serve.host_us_per_batch": "us",
    "trace.overhead_s": "s",
    "trace.self_s.harness": "s",
    "trace.self_s.graph": "s",
    "trace.self_s.workloads": "s",
    "trace.self_s.serve": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bdir):
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(REPO, "src", "core", "runner.h")):
        log("perfbench: simulator sources not found under src/")
        return None
    cmds = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds.append(["cmake", "--build", bdir, "-j", jobs])
    # Compiler and LTO temporaries stay inside the build tree.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in cmds:
        # A session of its own, so a timeout also stops make's compilers.
        try:
            proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    env=env, start_new_session=True)
        except OSError as e:
            log(f"perfbench: {' '.join(cmd)}: {e}")
            return None
        try:
            rc = proc.wait(timeout=850)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log(f"perfbench: {' '.join(cmd)} timed out")
            return None
        if rc != 0:
            log(f"perfbench: {' '.join(cmd)} failed with exit code {rc}")
            return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.isfile(exe) else None


def rotate_cpus(pid, stop):
    """Moves the harness to the next allowed CPU every ROTATE_S seconds.

    On a shared host the CPUs can run at persistently different speeds, and
    the scheduler keeps a single-threaded process on one of them, so a run
    would measure whichever CPU it landed on. Rotating spreads every run
    over all of them. Each move wakes the target CPU and refills its
    private caches; at 250 ms the harness stayed on-CPU for 95-99% of the
    wall time (perfbench/README.md, "Run-to-run noise").
    """
    cpus = sorted(os.sched_getaffinity(0))
    i = 0
    while not stop.wait(ROTATE_S):
        try:
            os.sched_setaffinity(pid, {cpus[i % len(cpus)]})
        except OSError:  # the harness has exited
            return
        i += 1


def check_ops(doc, pins):
    """Returns (attempted, failed, lines) over every operation of the run."""
    attempted = failed = 0
    lines = []
    first = {}
    for i, it in enumerate(doc["iterations"]):
        for op in it["ops"]:
            attempted += 1
            name, values, problems = op["op"], op["values"], []
            if op["error"]:
                problems.append(f"threw: {op['error']}")
            if pins is not None:
                want = pins.get(name)
                if want is None:
                    problems.append("no pin for this operation")
                else:
                    for key, val in want.items():
                        if values.get(key) != str(val):
                            problems.append(
                                f"{key}={values.get(key)} but pinned {val}")
            if name in first and first[name] != values:
                problems.append("outputs differ from iteration 0")
            first.setdefault(name, values)
            if problems:
                failed += 1
                lines.append(f"FAIL iter={i} {name}: " + "; ".join(problems))
            elif i == 0:
                shown = " ".join(f"{k}={v}" for k, v in values.items())
                lines.append(f"ok   {name}: {shown}")
    return attempted, failed, lines


# Units of host time: their values are scaled by the run's host factor.
TIME_UNITS = {"s", "ms", "us", "ns"}


def host_factors(doc):
    """Per iteration, the factor that multiplies its host times.

    perfbench.cc times a burst of a fixed integer kernel before the first
    iteration and after each one. The CPUs of a shared host change speed
    over seconds to minutes, and an iteration's times move with them. The
    factor is the kernel's nominal time over its median time in the bursts
    before and after the iteration, so scaled times read as if the host ran
    at the reference speed.
    """
    bursts = doc["probe_s"]
    return [doc["probe_nominal_s"] / statistics.median(bursts[i] + bursts[i + 1])
            for i in range(len(doc["iterations"]))]


def end_to_end(doc, factors):
    """Medians over the untraced iterations, plus the first one's peak RSS.

    Each iteration's times are multiplied by its factor, and its
    sim_mops_per_s divided by it.
    """
    its = [(it, f) for it, f in zip(doc["iterations"], factors)
           if not it["traced"]]
    med = lambda key: statistics.median(it[key] * f for it, f in its)
    return {
        "setup_s": med("setup_s"),
        "replay_s": med("replay_s"),
        "total_s": med("total_s"),
        "sim_mops_per_s": statistics.median(
            it["sim_ops"] / (it["total_s"] * f) / 1e6 for it, f in its),
        "peak_rss_mb": doc["peak_rss_mb"],
    }, len(its)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--pins", default=None)
    args = ap.parse_args()

    bdir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    exe = build(bdir)
    if exe is None:
        return 1

    pins = None
    pins_path = args.pins or (None if args.tiny
                              else os.path.join(HERE, "pins.json"))
    if pins_path:
        with open(pins_path) as f:
            doc = json.load(f)
        if args.seed == doc["seed"]:
            pins = doc["workloads"].get(args.workload, {})

    trace_out = os.path.join(bdir, f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--trace-out={trace_out}", f"--tiny={int(args.tiny)}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    stop = threading.Event()
    rotator = threading.Thread(target=rotate_cpus, args=(proc.pid, stop))
    rotator.start()
    try:
        out, _ = proc.communicate(timeout=args.seconds + 140)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: harness timed out")
        return 1
    finally:
        stop.set()
        rotator.join()
    if proc.returncode != 0:
        log(f"perfbench: harness failed with exit code {proc.returncode}")
        return 1
    doc = json.loads(out.strip().splitlines()[-1])

    attempted, failed, lines = check_ops(doc, pins)
    print(f"== {args.workload} seed={args.seed} "
          f"({'pinned' if pins is not None else 'repeat-checked'}) ==")
    for line in lines:
        print(line)
    factors = host_factors(doc)
    e2e, samples = end_to_end(doc, factors)
    raw, _ = end_to_end(doc, [1.0] * len(factors))
    print(f"{'host_factor':<16} {' '.join(f'{f:.4f}' for f in factors)} "
          f"(per iteration; probe nominal {doc['probe_nominal_s'] * 1e3:.2f} ms)")
    print(f"{'failed_frac':<16} {failed / attempted:.6f} "
          f"({failed} of {attempted} operations)")
    for name, unit in END_TO_END.items():
        how = "first iteration" if name == "peak_rss_mb" else (
            f"median of {samples}, unscaled {raw[name]:.6f}")
        print(f"{name:<16} {e2e[name]:.6f} {unit} ({how})")

    if args.trace:
        # Per-layer times mix iterations and standalone calls; they are
        # scaled by the run's median factor.
        factor = statistics.median(factors)
        layers = {}
        for name, unit in {**PER_LAYER, **PRINTED_ONLY}.items():
            if name in doc["layers"]:
                value = doc["layers"][name]
                layers[name] = value * factor if unit in TIME_UNITS else value
                print(f"{name:<32} {layers[name]:.6g} {unit}")
        print(f"trace written to {trace_out}")
        missing = [k for k in PER_LAYER if k not in layers]
        if missing:
            log(f"perfbench: harness reported no {', '.join(missing)}")
            return 1
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
