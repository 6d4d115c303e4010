"""Benchmark harness for eschbaz.

    python3 bench/run.py --workload {scan,certify,report} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each run generates its inputs from the seed, does the workload's
fixed work (sized by --seconds), checks every result, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, timed
with nothing wrapped; with ``--trace 1`` the same work runs with every layer
boundary wrapped and the metrics are the per-layer ones.  A record of the run
(op latencies, host context, kept spans) is written to ``bench-out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench-out")

SETUP_PROBES = 9
CALIBRATION_REPEATS = 5


def import_package():
    """Import eschbaz from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "eschbaz", "__init__.py")):
        sys.exit(f"bench: no eschbaz sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import eschbaz

    if os.path.dirname(os.path.dirname(os.path.abspath(eschbaz.__file__))) != SRC:
        sys.exit(f"bench: imported eschbaz from {eschbaz.__file__}, not from {SRC}")
    return eschbaz


# ---------------------------------------------------------------------------
# host context: recorded beside every run, never gated, never used to rescale


def _calibration_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def calibration_ms() -> float:
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_loop()
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def cpu_steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Falls back to the minimum when there are 10 samples or fewer.
    """
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100 * (index + 1) / len(ordered)


def harness_command(args, flag: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", flag]


def serve_setup_probes(args) -> int:
    """Launcher loop: for each line on stdin, time one setup probe and print it.

    A probe is a fresh harness process that imports eschbaz, generates this
    run's inputs, warms up, reports ready and exits.  The time printed is
    from spawning it to its ready line.
    """
    command = harness_command(args, "--setup-probe")
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=120)
        ok = line.strip() == "ready" and code == 0
        print(elapsed if ok else f"failed (exit {code}, said {line.strip()!r})", flush=True)
    return 0


class SetupProbes:
    """``setup_s`` samples: SETUP_PROBES probes spread evenly between the ops.

    Spread over the run, their median sees the same host conditions as the
    ops.  Taken one after another, all probes of a run fell in one slow or
    fast spell of the host, and the median moved with it.  A launcher process
    spawns them and is reaped only after the peak RSS is read, so the probes'
    memory is not counted as the harness's.
    """

    def __init__(self, args, ops: int):
        self.due = collections.Counter((2 * i + 1) * ops // (2 * SETUP_PROBES) for i in range(SETUP_PROBES))
        self.times = []
        self.launcher = subprocess.Popen(harness_command(args, "--serve-setup-probes"), cwd=ROOT,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()

    def _reply(self) -> str:
        reply = self.launcher.stdout.readline().strip()
        if not reply:
            raise RuntimeError("setup probe launcher exited")
        return reply

    def before_op(self, index: int) -> None:
        for _ in range(self.due[index]):
            self.launcher.stdin.write("probe\n")
            self.launcher.stdin.flush()
            reply = self._reply()
            try:
                self.times.append(float(reply))
            except ValueError:
                raise RuntimeError(f"setup probe {reply}") from None

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.read()
        self.launcher.wait(timeout=120)


def peak_rss_kb() -> int:
    """Peak RSS of this process plus that of its largest waited-for child."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def end_to_end_metrics(wall, setup_times, peak_kb, ok, attempted) -> dict:
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_frac": (ok / attempted, "ratio"),
    }


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail op latency.

    Printed and recorded with every run but not gated: on a host whose speed
    flips between two modes for seconds at a time, a median picks whichever
    mode held most ops, so it moves far more between runs than ``wall_s``.
    """
    tail_value, tail_pct = tail(latencies)
    return {"ops": len(latencies), "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_value * 1000, "op_tail_percentile": tail_pct}


# ---------------------------------------------------------------------------
# the run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve-setup-probes", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.serve_setup_probes:
        return serve_setup_probes(args)
    eschbaz = import_package()
    sys.path.insert(0, BENCH_DIR)
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "calibration_ms_before": calibration_ms()}
    steal_before = cpu_steal_ticks()

    probes = None if args.trace else SetupProbes(args, len(workload.inputs))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(eschbaz)

    latencies, problems = [], []
    attempted = ok = failed = 0
    wall = 0.0  # time spent in ops, failed ones included; checks are not counted
    try:
        for index, inp in enumerate(workload.inputs):
            if probes:
                probes.before_op(index)
            start = time.perf_counter()
            try:
                if tracer:
                    result, elapsed = tracer.op(workload.run, inp)
                else:
                    result = workload.run(inp)
                    elapsed = time.perf_counter() - start
                tally = workload.check(inp, result)
            except Exception as exc:  # an op that raises, or whose result cannot be read, failed
                units = workload.units(inp)
                attempted += units
                failed += units
                problems.append(f"{inp!r:.120}: {type(exc).__name__}: {exc}")
                latencies.append(math.inf)
                wall += time.perf_counter() - start
                continue
            wall += elapsed
            attempted += tally.attempted
            ok += tally.ok
            failed += tally.failed
            problems.extend(tally.problems)
            latencies.append(math.inf if tally.failed else elapsed)
            if tracer:
                tracer.counters.update(tally.counters)

        # read before the probe launcher is reaped, so that its probes do not count as children
        peak_kb = peak_rss_kb()
    finally:
        if probes:
            probes.close()

    host["calibration_ms_after"] = calibration_ms()
    steal_after = cpu_steal_ticks()
    if steal_before is not None and steal_after is not None:
        host["steal_ticks"] = steal_after - steal_before

    if tracer:
        tracer.uninstall()
        metrics = layer_metrics(tracer, workload.shifts_checked())
        metrics["trace.wall_s"] = (wall, "s")
    else:
        metrics = end_to_end_metrics(wall, probes.times, peak_kb, ok, attempted)

    latency = latency_summary(latencies)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "latency": latency,
        "latencies_s": latencies, "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer:
        record["spans"] = tracer.spans
    with open(os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w") as f:
        json.dump(record, f)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"host: {json.dumps(host)}")
    print(f"latency (not gated): op_p50_ms={latency['op_p50_ms']:.4f} ms, "
          f"op_tail_ms={latency['op_tail_ms']:.4f} ms at p{latency['op_tail_percentile']:.1f} "
          f"of {latency['ops']} ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
