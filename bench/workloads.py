"""Workloads: seeded inputs, the timed op, and the check of each op's result.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")`` and
does a fixed amount of work that depends only on the seed and ``--seconds``,
so two runs with the same arguments make exactly the same calls.  The
harness is the only client; the library is driven in-process through its
public functions.  See LAYERS.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from math import gcd

from eschbaz import cli, embedding, survey
from eschbaz.bazaikin import is_free_baz
from eschbaz.embedding import candidate_q
from eschbaz.eschenburg import EschParams

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Serial scan_box(m) time on the parent commit (2-core 2.1 GHz Xeon VM,
# Python 3.11) is close to 0.2 s * (m / 20) ** 4.3.  The model only sizes a
# run's box band from --seconds; it is never used to adjust a timing.
SCAN_MIN_SIZE = 10
SCAN_BUDGET_SHARE = 0.9

# Work per second of --seconds, chosen so that a run of the parent commit on
# the machine above takes about --seconds.
CERTIFY_SPACES_PER_SECOND = 1600
REPORT_ROUNDS_PER_SECOND = 12

CERTIFY_BOUND = 50
CERTIFY_MU_MAX = 3
CERTIFY_DISTINCT = 3
CERTIFY_BATCH = 128

REPORT_FORMATS = ("json", "csv", "text")


@dataclass
class Tally:
    """Outcome of one op's check.

    ``attempted`` counts checked units (a CLI invocation on ``report``, an op
    elsewhere).  ``ok`` counts units that succeeded as a user would see it;
    ``failed`` counts units whose outcome is wrong for this commit.  A unit
    can be neither: the over-limit ``embed`` invocation exits 2 (a known
    defect) and is counted as not ok but as expected.
    """

    attempted: int = 0
    ok: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


def _load(name: str):
    with open(os.path.join(DATA_DIR, name)) as f:
        return json.load(f)


def free_space(rng: random.Random, bound: int) -> EschParams:
    """A free space with entries in [-bound, bound] and nine nonzero differences.

    Freeness is tested here with math.gcd, independently of the library:
    gcd(a1 - b_j, a2 - b_k) == 1 for every j != k.
    """
    span = 2 * bound + 1
    uniform = rng.random
    while True:
        a1, a2, a3, b1 = (int(uniform() * span) - bound for _ in range(4))
        rest = a1 + a2 + a3 - b1  # b2 + b3
        lo, hi = max(-bound, rest - bound), min(bound, rest + bound)
        if lo > hi:
            continue
        b2 = lo + int(uniform() * (hi - lo + 1))
        b3 = rest - b2
        x1, x2, x3 = a1 - b1, a1 - b2, a1 - b3
        y1, y2, y3 = a2 - b1, a2 - b2, a2 - b3
        if (gcd(x1, y2) == 1 and gcd(x1, y3) == 1 and gcd(x2, y1) == 1
                and gcd(x2, y3) == 1 and gcd(x3, y1) == 1 and gcd(x3, y2) == 1
                and 0 not in (x1, x2, x3, y1, y2, y3, a3 - b1, a3 - b2, a3 - b3)):
            return EschParams((a1, a2, a3), (b1, b2, b3))


@functools.cache
def prime_divisors(n: int) -> frozenset[int]:
    """Distinct primes dividing n != 0, by trial division (small n only)."""
    n, primes, p = abs(n), set(), 2
    while p * p <= n:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    if n > 1:
        primes.add(n)
    return frozenset(primes)


def expected_prime_product(e: EschParams) -> int:
    """P of the certified shifts, recomputed from its definition.

    For each pair (k, l), every distinct prime of a_k - b_l that is coprime
    to a_i + a_j + 1 ({i, j} the complement of k) contributes one factor.
    Independent of the library, so a wrong or stale P fails the check.
    """
    product = 1
    for k in range(3):
        pair_sum = sum(e.a) - e.a[k] + 1
        for bl in e.b:
            for p in prime_divisors(e.a[k] - bl):
                if gcd(p, pair_sum) == 1:
                    product *= p
    return product


# ---------------------------------------------------------------------------
# scan


def scan_model_seconds(m: int) -> float:
    return 0.2 * (m / 20) ** 4.3


def scan_sizes(seconds: int, stored: dict) -> list[int]:
    """Box sizes SCAN_MIN_SIZE.. whose modelled serial cost fits the budget."""
    budget = seconds * SCAN_BUDGET_SHARE
    sizes, cost, m = [], 0.0, SCAN_MIN_SIZE
    while str(m) in stored and (not sizes or cost + scan_model_seconds(m) <= budget):
        sizes.append(m)
        cost += scan_model_seconds(m)
        m += 1
    return sizes


class Workload:
    name: str
    inputs: list

    def units(self, inp) -> int:
        """Checked units in one op."""
        return 1

    def shifts_checked(self) -> int | None:
        """Window shifts the run checks, when the inputs alone determine it."""
        return None


class Scan(Workload):
    """Serial survey of a band of box sizes, each scanned once, in seeded order."""

    name = "scan"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.totals = _load("scan_totals.json")
        sizes = scan_sizes(seconds, self.totals)
        rng.shuffle(sizes)
        self.inputs = [(m, rng.randint(1, 50)) for m in sizes]

    def shifts_checked(self) -> int:
        return sum(self.totals[str(m)]["shifts"] for m, _ in self.inputs)

    def warm_up(self) -> None:
        survey.scan_box(8, 1, workers=1)

    def run(self, inp):
        m, limit = inp
        return survey.scan_box(m, limit, workers=1)

    def check(self, inp, result) -> Tally:
        m, limit = inp
        stats, rows = result
        want = self.totals[str(m)]
        got = {k: getattr(stats, k, None) for k in ("total", "embeddable", "counterexamples")}
        expected = {k: want[k] for k in got}
        if got != expected:
            problem = f"scan_box({m}) stats {got} != stored {expected}"
        elif len(rows) != min(limit, want["counterexamples"]):
            problem = f"scan_box({m}) returned {len(rows)} rows"
        else:
            return Tally(attempted=1, ok=1)
        return Tally(attempted=1, failed=1, problems=[problem])


# ---------------------------------------------------------------------------
# certify


class Certify(Workload):
    """Certified shifts and distinct-|H6| hosts for seeded free spaces.

    One space takes about 0.5 ms.  Ops that short are either all fast or
    all slow when the host's speed flips, so their median jumps between the
    two, and 30,000 of them would put the tail at p99.97, a GC pause.  An op
    is therefore a batch of CERTIFY_BATCH spaces, about 70 ms.
    """

    name = "certify"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = [tuple(free_space(rng, CERTIFY_BOUND) for _ in range(CERTIFY_BATCH))
                       for _ in range(seconds * CERTIFY_SPACES_PER_SECOND // CERTIFY_BATCH)]

    def units(self, batch) -> int:
        return len(batch)

    def warm_up(self) -> None:
        self.run([EschParams((2, 0, 0), (15, -2, -11))])

    def run(self, batch):
        return [self._certify(e) for e in batch]

    @staticmethod
    def _certify(e):
        shifts = []
        for mu in range(1, CERTIFY_MU_MAX + 1):
            for sign in (1, -1):
                c = embedding.certified_shift(e, mu, sign)
                shifts.append((mu, sign, c, embedding.nonsingular_shift(e, c)))
        return shifts, embedding.homotopy_distinct_embeddings(e, CERTIFY_DISTINCT)

    def check(self, batch, results) -> Tally:
        tally = Tally(attempted=len(batch))
        for e, result in zip(batch, results):
            problems = self._problems(e, *result)
            tally.problems.extend(problems)
            tally.failed += bool(problems)
        tally.ok = tally.attempted - tally.failed
        return tally

    @staticmethod
    def _problems(e, shifts, certs) -> list[str]:
        problems = []
        base = expected_prime_product(e)
        for mu, sign, c, nonsingular in shifts:
            if c != sign * 2 ** (mu - 1) * base**mu:
                problems.append(f"{e}: certified shift mu={mu} sign={sign} is {c}, not ±2^(mu-1)·P^mu")
            if not nonsingular:
                problems.append(f"{e}: nonsingular_shift rejects certified shift {c}")
            if not is_free_baz(candidate_q(e, c)):
                problems.append(f"{e}: candidate at certified shift {c} is not free")
        h6 = [cert.h6 for cert in certs]
        if len(certs) != CERTIFY_DISTINCT or len(set(h6)) != len(h6):
            problems.append(f"{e}: distinct hosts have |H6| {h6}")
        for cert in certs:
            if cert.baz != candidate_q(e, cert.shift) or not is_free_baz(cert.baz):
                problems.append(f"{e}: host at shift {cert.shift} is not the free candidate")
        return problems


# ---------------------------------------------------------------------------
# report


def project(value, shape):
    """``value`` restricted to the fields in ``shape``.

    A shape is ``None`` for a leaf, ``{"{}": {key: shape}}`` for an object
    and ``{"[]": shape}`` for a list.  Fields absent from the shape (added
    after the golden corpus was captured) are dropped; a field the shape
    names but the value lacks projects to a marker that matches nothing.
    """
    if shape is None:
        return value
    if "{}" in shape:
        if not isinstance(value, dict):
            return "<not an object>"
        return {k: project(value[k], s) if k in value else "<missing>"
                for k, s in shape["{}"].items()}
    if not isinstance(value, list):
        return "<not a list>"
    return [project(v, shape["[]"]) for v in value]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invoke(argv: list[str]) -> tuple[int, str]:
    """In-process ``eschbaz.cli.run`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


class Report(Workload):
    """Rounds of CLI invocations over every reporting subcommand and format.

    Single invocations differ about 30x in cost, so an op is a whole round:
    each subcommand once per format with seeded arguments from the golden
    pool, plus the ``embed`` invocation whose 4424-digit shift is over
    Python's 4300-digit int/str limit.
    """

    name = "report"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"{self.name}:{seed}")
        pool = _load("report_pool.json")
        self.shapes = pool["shapes"]
        self.over_limit = pool["over_limit_embed"]
        self.inputs = [self._round(rng, pool["entries"]) for _ in range(seconds * REPORT_ROUNDS_PER_SECOND)]

    def _round(self, rng, entries) -> list[tuple]:
        calls = []
        for command in sorted(entries):
            for fmt in REPORT_FORMATS:
                entry = rng.choice(entries[command])
                calls.append(([command, *entry["args"], "--format", fmt], entry["digest"]))
        calls.append((self.over_limit["args"], None))
        return calls

    def units(self, calls) -> int:
        return len(calls)

    def warm_up(self) -> None:
        self.run(self._round(random.Random("report:warm-up"), _load("report_pool.json")["entries"]))

    def run(self, calls):
        return [invoke(argv) for argv, _ in calls]

    def check(self, calls, result) -> Tally:
        tally = Tally(attempted=len(calls))
        failed_exits = 0
        bytes_out = 0
        for (argv, want_digest), (code, out) in zip(calls, result):
            bytes_out += len(out.encode())
            failed_exits += code != 0
            if want_digest is None:
                problem, ok = self._check_over_limit(code, out)
            else:
                problem, ok = self._check_call(argv, want_digest, code, out), True
            if problem:
                tally.failed += 1
                tally.problems.append(f"{' '.join(argv)[:120]}: {problem}")
            elif ok:
                tally.ok += 1
        tally.counters = {"cli.bytes_out": bytes_out, "cli.failed": failed_exits}
        return tally

    def _check_call(self, argv, want_digest, code, out) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if not out.strip():
            return "empty output"
        if argv[-1] != "json":
            return None
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not JSON"
        got = digest(project(report, self.shapes[argv[0]]))
        return None if got == want_digest else "JSON results differ from the golden corpus"

    def _check_over_limit(self, code, out) -> tuple[str | None, bool]:
        """(problem, ok): exit 2 is the known defect; exit 0 must be right."""
        if code == 2:
            return None, False
        if code != 0:
            return f"exit code {code}", False
        try:
            cert = json.loads(out)["results"][0]
        except (ValueError, KeyError, IndexError, TypeError):
            return "over-limit report has no certificate", False
        if not isinstance(cert, dict) or cert.get("shift") != self.over_limit["shift"] or cert.get("baz_free") is not True:
            return "over-limit certificate is wrong", False
        return None, True


WORKLOADS = {cls.name: cls for cls in (Scan, Certify, Report)}
