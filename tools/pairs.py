"""Compare two checkouts on one benchmark workload in interleaved pairs.

    python tools/pairs.py PARENT CHANGE --workload NAME [--pairs 10] [--seed 1]

PARENT and CHANGE are checkout directories.  Pair i runs
``bench/run.py --workload NAME --seed SEED+i --seconds S --trace 0`` once in
each, PARENT first in even pairs and CHANGE first in odd ones, so a drift of
the host's speed falls on both sides alike.  S is ``run_seconds`` of
``BENCHMARK.json`` (read from this tool's checkout), the same on both sides.
For each end-to-end metric of that file it prints each side's
median and quartiles, the pairs each side wins by the metric's ``better``
field (a tie counts for neither), whether a gain holds: CHANGE wins at
least 9 pairs in 10, and its median is better than PARENT's by more than
PARENT's interquartile range, and whether CHANGE stays within the metric's
``bound``: its median is worse than PARENT's by no more than ``bound`` times
PARENT's median (the verdict a change that claims no gain needs).  Quartiles
are ``statistics.quantiles(values, n=4)``, the exclusive method.  Exits 1 if
any run does not report ``"correct": true``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(directory: str, workload: str, seed: int, seconds: int) -> dict:
    """The last line of one untraced bench run in directory, as JSON; ``correct`` is False if it has none."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per metric: both sides' quartiles, the pairs each side wins, whether CHANGE's gain holds
    and whether it stays within the metric's bound.

    ``parent[i]`` and ``change[i]`` map metric names to the values of pair i.
    ``worse_by`` is how much worse CHANGE's median is, as a fraction of
    PARENT's median (negative when it is better).
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)]
        old, new = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        change_wins = sum(sign * (c - p) > 0 for p, c in pairs)
        parent_wins = sum(sign * (p - c) > 0 for p, c in pairs)
        holds = 10 * change_wins >= 9 * len(pairs) and sign * (new[1] - old[1]) > old[2] - old[0]
        worse = sign * (old[1] - new[1])
        worse_by = worse / abs(old[1]) if old[1] else (math.inf if worse > 0 else 0.0)
        rows.append({"name": name, "unit": metric["unit"], "parent": old, "change": new,
                     "change_wins": change_wins, "parent_wins": parent_wins, "holds": holds,
                     "worse_by": worse_by, "bound": metric["bound"], "within": worse_by <= metric["bound"]})
    return rows


def report(rows: list[dict], n: int) -> list[str]:
    """One line per metric: medians with quartiles, wins of each side, and the verdicts on a gain and the bound."""
    lines = []
    for row in rows:
        sides = [f"{label} {median:.4g} [{q1:.4g}, {q3:.4g}]"
                 for label, (q1, median, q3) in (("parent", row["parent"]), ("change", row["change"]))]
        lines.append(f"{row['name']} ({row['unit']}): {sides[0]} -> {sides[1]}; "
                     f"change wins {row['change_wins']}/{n}, parent wins {row['parent_wins']}/{n}; "
                     f"gain {'holds' if row['holds'] else 'does not hold'}; "
                     f"median worse by {row['worse_by']:+.1%}, "
                     f"{'within' if row['within'] else 'outside'} the {row['bound']:.0%} bound")
    return lines


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Interleaved benchmark pairs of two checkouts.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    results = {"parent": [], "change": []}
    failed = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(getattr(args, side), args.workload, seed, seconds)
            if result.get("correct") is not True:
                failed.append(f"{side} seed {seed}: {result.get('error') or result}")
            results[side].append(result)
        shown = {side: results[side][-1].get("metrics", {}) for side in results}
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "; ".join(
            f"{m['name']} {shown['parent'].get(m['name'], {}).get('value')} -> "
            f"{shown['change'].get(m['name'], {}).get('value')}" for m in metrics), flush=True)
    if failed:
        print("runs not correct:", *failed, sep="\n")
        return 1
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"--seconds {seconds}")
    rows = summarize(metrics, [values(r) for r in results["parent"]], [values(r) for r in results["change"]])
    print(*report(rows, args.pairs), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
