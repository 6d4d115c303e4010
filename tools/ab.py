"""Compare two revisions on one benchmark workload, in one process.

    python tools/ab.py PARENT CHANGE --workload NAME [--rounds 30] [--seed 1]

PARENT and CHANGE are git revisions of this tool's checkout.  For each side,
``git archive`` extracts the revision's ``src/eschbaz`` into a temporary
directory, which is imported as ``eschbaz``; then this checkout's
``bench/workloads.py`` is loaded under the module name ``ab_workloads_parent``
or ``ab_workloads_change``, so it binds that side's package.  The
``eschbaz`` entries of ``sys.modules`` are cleared before each side loads,
so the two sides share no module state (the ``factorize`` memo, the
walked-space record, the CLI parser).  Both sides build the workload from
the same seed, sized as ``bench/run.py --seconds 1`` sizes it, and run its
warm-up and then every op once, untimed.

Each round then runs every op on one side and then on the other, timed with
``time.process_time``, and alternates which side goes first, so a drift of
the host's speed falls on both sides alike.  The round's ratio is CHANGE's
time over PARENT's.  The tool prints the median ratio, its quartiles
(``statistics.quantiles(n=4)``, the exclusive method), the rounds each side
is faster in, and whether the whole interquartile range lies below 1.

Every op result of every round, the untimed one included, goes through the
workload's own ``check``, and the two sides' results are compared by
``repr``.  The tool exits 1 if a check fails or the results differ, and 0
otherwise, whatever the timings: each A/B is also an equivalence check.
``setup_s`` and ``peak_rss_mb`` need a fresh process per run, which
``tools/pairs.py`` gives.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_FILE = ROOT / "bench" / "workloads.py"
SIDES = ("parent", "change")
SECONDS = 1


def extract(revision: str, directory: Path) -> Path:
    """Extract revision's ``src/eschbaz`` under directory; return the ``src`` directory."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision, "src/eschbaz"],
                          capture_output=True)
    if done.returncode:
        raise SystemExit(f"ab: git archive {revision} failed: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        # the "data" filter exists from 3.10.12 and 3.11.4 on, and 3.14 makes it the default
        archive.extractall(directory, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return directory / "src"


def load(label: str, src: Path):
    """This checkout's ``bench/workloads.py``, bound to the ``eschbaz`` package under src."""
    for name in [name for name in sys.modules if name == "eschbaz" or name.startswith("eschbaz.")]:
        del sys.modules[name]
    name = f"ab_workloads_{label}"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses reads the defining module from sys.modules while the file runs
    sys.modules[name] = module
    sys.path.insert(0, str(src))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
    package = Path(module.cli.__file__).resolve().parent
    if package != (src / "eschbaz").resolve():
        raise SystemExit(f"ab: the {label} side imported eschbaz from {package}, not from {src}")
    return module


def time_ops(workload) -> tuple[float, list]:
    """The process time of every op of workload, run once, and their results."""
    gc.collect()
    start = time.process_time()
    results = [workload.run(inp) for inp in workload.inputs]
    return time.process_time() - start, results


def problems(workloads: dict, results: dict) -> list[str]:
    """Failed checks on either side, and the ops whose results differ between the sides by ``repr``."""
    found = []
    for label in SIDES:
        workload = workloads[label]
        for i, (inp, result) in enumerate(zip(workload.inputs, results[label])):
            tally = workload.check(inp, result)
            if tally.failed:
                found.extend(f"{label} op {i}: {problem}" for problem in tally.problems or ["check failed"])
    found.extend(f"op {i}: the two sides' results differ"
                 for i, (old, new) in enumerate(zip(results["parent"], results["change"])) if repr(old) != repr(new))
    return found


def summarize(parent: list[float], change: list[float]) -> dict:
    """Ratios change/parent per round: median, quartiles, wins of each side, and each side's median time."""
    ratios = [new / old for old, new in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"rounds": len(ratios), "median": median, "quartiles": (q1, q3),
            "change_wins": sum(new < old for old, new in zip(parent, change)),
            "parent_wins": sum(old < new for old, new in zip(parent, change)),
            "parent_s": statistics.median(parent), "change_s": statistics.median(change)}


def report(workload: str, summary: dict) -> str:
    n, (q1, q3) = summary["rounds"], summary["quartiles"]
    return (f"{workload}: change/parent {summary['median']:.3f} (quartiles {q1:.3f}-{q3:.3f}) over {n} rounds; "
            f"change faster in {summary['change_wins']}/{n}, parent faster in {summary['parent_wins']}/{n}; "
            f"IQR {'below' if q3 < 1 else 'not below'} 1; "
            f"median process time parent {summary['parent_s']:.3f} s, change {summary['change_s']:.3f} s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Same-process A/B of two revisions on one benchmark workload.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        modules = {label: load(label, extract(getattr(args, label), Path(tmp) / label)) for label in SIDES}
        if args.workload not in modules["change"].WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(modules['change'].WORKLOADS)}")
        workloads = {label: modules[label].WORKLOADS[args.workload](args.seed, SECONDS) for label in SIDES}
        for workload in workloads.values():
            workload.warm_up()
        times: dict[str, list[float]] = {label: [] for label in SIDES}
        for r in range(args.rounds + 1):  # round 0 is untimed
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            results = {}
            for label in order:
                elapsed, results[label] = time_ops(workloads[label])
                if r:
                    times[label].append(elapsed)
            found = problems(workloads, results)
            if found:
                print(f"round {r}: results not equivalent:", *found[:20], sep="\n")
                return 1
            if r:
                print(f"round {r} ({order[0]} first): parent {times['parent'][-1]:.3f} s, "
                      f"change {times['change'][-1]:.3f} s", flush=True)
    print(f"{args.parent} -> {args.change}, seed {args.seed}")
    print(report(args.workload, summarize(times["parent"], times["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
