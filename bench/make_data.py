"""Regenerate the benchmark's stored expectations from the current code.

    python3 bench/make_data.py

Writes ``data/scan_totals.json`` (ScanStats and the number of window shifts
for every box size a scan run can draw) and ``data/report_pool.json`` (the
argument pool of the ``report`` workload with a digest of each JSON report,
projected onto the fields it has today).  Run it only at a commit whose
results are known to be right: the benchmark checks later commits against
these files.
"""

from __future__ import annotations

import json
import os
import random
import sys
from itertools import permutations

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import eschbaz  # noqa: E402
from eschbaz import embedding, survey  # noqa: E402
from eschbaz.eschenburg import EschParams  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DATA_DIR, digest, free_space, invoke, project  # noqa: E402

SCAN_MAX_SIZE = 42
POOL_SEED = 1203
POOL_SIZE = 24
OVER_LIMIT_MU = 640


def scan_totals() -> dict:
    tracer = Tracer()
    tracer.install(eschbaz)
    totals = {}
    for m in range(4, SCAN_MAX_SIZE + 1):
        before = tracer.calls("embedding.make_certificate")
        stats, _ = survey.scan_box(m, 1, workers=1)
        totals[str(m)] = {
            "total": stats.total,
            "embeddable": stats.embeddable,
            "counterexamples": stats.counterexamples,
            "shifts": tracer.calls("embedding.make_certificate") - before,
        }
        print(m, totals[str(m)], flush=True)
    tracer.uninstall()
    return totals


def pc_space(rng: random.Random) -> EschParams:
    """A free, positively curved space, permuted and shifted off normal form.

    a1 is large and the other entries small, so parameters are big while the
    curvature window (about (a2 + a3 - b2 - b3) / 2 shifts) stays short.
    """
    while True:
        a1 = rng.randint(1000, 20000)
        a2 = rng.randint(0, 12)
        b3 = -rng.randint(1, 12)
        b2 = rng.randint(b3, -1)
        b1 = a1 + a2 - b2 - b3
        a, b = [a1, a2, 0], [b1, b2, b3]
        if all(eschbaz.arith.gcd(a[0] - b[s[0]], a[1] - b[s[1]]) == 1 for s in permutations(range(3))):
            break
    rng.shuffle(a)
    if rng.random() < 0.5:
        b[1], b[2] = b[2], b[1]
    c = rng.randint(-1000, 1000)
    return EschParams(tuple(x + c for x in a), tuple(x + c for x in b))


def triple(values) -> str:
    return ",".join(str(v) for v in values)


def esch_args(e: EschParams) -> list[str]:
    # "--a=..." because a leading minus sign would read as an option
    return [f"--a={triple(e.a)}", f"--b={triple(e.b)}"]


def odd_tuple(rng: random.Random) -> list[int]:
    return [rng.randrange(-99, 100, 2) for _ in range(5)]


def pool_args(rng: random.Random) -> dict[str, list[list[str]]]:
    pool = {
        "counterexamples": [[]],
        "families": [["--k-max", str(k)] for k in range(8, 17)],
        "cohom1": [["--p-max", str(p)] for p in range(16, 33, 2)],
    }
    for _ in range(POOL_SIZE):
        e = free_space(rng, 50)
        pool.setdefault("window", []).append(esch_args(pc_space(rng)))
        pool.setdefault("certified-shifts", []).append(esch_args(e) + ["--mu-max", str(rng.randint(2, 3))])
        pool.setdefault("distinct", []).append(esch_args(free_space(rng, 50)) + ["--n", str(rng.randint(2, 4))])
        pool.setdefault("submanifolds", []).append([f"--q={triple(odd_tuple(rng))}"])
        a = [rng.randint(-50, 50) for _ in range(3)]
        b = [rng.randint(-50, 50), rng.randint(-50, 50)]
        pool.setdefault("verify-esch", []).append([f"--a={triple(a)}", f"--b={triple(b + [sum(a) - sum(b)])}"])
        q = odd_tuple(rng)
        if rng.random() < 0.25:
            q[rng.randrange(5)] += 1
        pool.setdefault("verify-baz", []).append([f"--q={triple(q)}"])
        pool.setdefault("embed", []).append(esch_args(free_space(rng, 50)) + [f"--c={rng.randint(-30, 30)}"])
    return pool


def shape_of(value):
    if isinstance(value, dict):
        return {"{}": {k: shape_of(v) for k, v in value.items()}}
    if isinstance(value, list):
        shape = None
        for item in value:
            shape = merge_shapes(shape, shape_of(item))
        return {"[]": shape} if shape is not None else None
    return None


def merge_shapes(x, y):
    if x is None or y is None:
        return x if y is None else y
    if "{}" in x and "{}" in y:
        keys = {**x["{}"], **y["{}"]}
        return {"{}": {k: merge_shapes(x["{}"].get(k), y["{}"].get(k)) for k in keys}}
    if "[]" in x and "[]" in y:
        return {"[]": merge_shapes(x["[]"], y["[]"])}
    raise ValueError(f"incompatible shapes {x} and {y}")


def report_pool() -> dict:
    rng = random.Random(POOL_SEED)
    reports = {}
    for command, arg_sets in pool_args(rng).items():
        for args in arg_sets:
            code, out = invoke([command, *args, "--format", "json"])
            if code != 0:
                raise SystemExit(f"{command} {args} exited {code}")
            report = json.loads(out)
            del report["version"]
            reports.setdefault(command, []).append((args, report))
    shapes = {}
    for command, items in reports.items():
        shape = None
        for _, report in items:
            shape = merge_shapes(shape, shape_of(report))
        shapes[command] = shape
    entries = {
        command: [{"args": args, "digest": digest(project(report, shapes[command]))}
                  for args, report in items]
        for command, items in reports.items()
    }
    e = EschParams((2, 0, 0), (15, -2, -11))
    shift = embedding.certified_shift(e, OVER_LIMIT_MU, 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(shift)
    finally:
        sys.set_int_max_str_digits(limit)
    return {
        "shapes": shapes,
        "entries": entries,
        "over_limit_embed": {
            "args": ["embed", *esch_args(e), f"--c={digits}", "--format", "json"],
            "shift": digits,
        },
    }


def write(name: str, value) -> None:
    with open(os.path.join(DATA_DIR, name), "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    write("report_pool.json", report_pool())
    write("scan_totals.json", scan_totals())
