"""Batch verification and exhaustive search.

Three fixed verification jobs -- the nine hard-coded counterexample spaces,
the two infinite cohomogeneity-two families that extend the first and last
of them, and the cohomogeneity-one family -- plus ``scan_box``, which
enumerates every canonical free, positively curved Eschenburg parameter set
inside a box and reports which of them admit no positively curved
non-singular Bazaikin host under the shift construction.

``scan_box`` enumerates each space in the box once, as its normal form.  A
space is in the box when its normal form or its mirrored canonical form
fits, and the mirror fits whenever the normal form does (b1 <= max_abs and
b2 <= -1 give b3 > a1 - max_abs), so the box is exactly the mirror's
bounds: b3 >= a1 - max_abs and b1 <= a1 + max_abs.  One loop,
``_scan_shard``, enumerates the forms tail-major, over (b3, b2) tails, then
a2, and decides the whole row of a1 of each (b3, b2, a2) at once, on plain
ints: the window (``embedding._window``) and the chain
(``eschenburg._in_chain``) are taken once per row.  Once the tail is fixed,
each freeness gcd and each of the nine singularity tests is either a tail
constant alone or a residue class a1 = r (mod p), p a prime of a tail
constant (the derivation is in ``_scan_shard``'s docstring), so the row is
one int used as a bitset: the free forms are the row minus the freeness
classes, and a form whose whole window is singular lies in every shift's
union of classes.  Families A and B are the covering congruences
a1 = 39 and 12909 (mod 15015) of this kind.  The scan builds no
``EschParams`` for a form that embeds, and no certificates.  All
three counterexample jobs, the scan included, build every row in one
helper, ``_counterexample_row``, which re-decides its space by the
three-gcd walk (``embedding._first_nonsingular``) over the window it
carries, not by residue classes: a space that embeds after all fails,
naming its non-singular shifts.  The cohomogeneity-one job
and the ``window`` command keep the full-certificate path, which is also
the test oracle for the fast one.  ``scan_box`` can shard its tails over
worker processes, at most one per CPU this process may use; rows are
merged by deterministic sort, so output is identical for any worker count.
The pool's modules (``concurrent.futures``, ``multiprocessing``) load only
when a pool starts, so no other caller of the package pays for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd, isqrt

from .arith import InternalError, to_decimal
from .bazaikin import BazParams
from .embedding import (
    EmbeddingCertificate,
    _first_nonsingular,
    _moduli,
    _window,
    make_certificate,
    nonsingular_shift,
    pc_shift_window,
)
from .eschenburg import (
    _FAMILIES,
    EschParams,
    _in_chain,
    family_cohomogeneity_one,
    family_cohomogeneity_two,
    h4_order,
    is_free,
    is_pc_metric,
    pc_normal_form,
)


class VerificationFailure(Exception):
    """A batch check found a mismatch; the message names what and where."""


@dataclass(frozen=True, slots=True)
class SurveyRow:
    """One counterexample: a free space ``esch`` in positive-curvature normal form.

    Every shift of its curvature ``window`` (never empty) gives a singular
    candidate; ``h4`` is |H^4|.  ``_counterexample_row`` builds every row.
    """

    esch: EschParams
    window: range
    h4: int


@dataclass(frozen=True, slots=True)
class ScanStats:
    total: int
    embeddable: int
    counterexamples: int


# The nine known counterexamples: free, positively curved Eschenburg spaces
# whose entire curvature window consists of singular candidates.  Windows are
# stored verbatim as ground truth, not re-derived.
KNOWN_COUNTEREXAMPLES: tuple[tuple[tuple[int, int, int], tuple[int, int, int], range], ...] = (
    ((39, 0, 0), (55, -3, -13), range(0, 8)),
    ((77, 2, 0), (93, -3, -11), range(-1, 7)),
    ((171, 2, 0), (187, -3, -11), range(-1, 7)),
    ((225, 4, 0), (247, -5, -13), range(-2, 9)),
    ((281, 3, 0), (294, -2, -8), range(-1, 5)),
    ((309, 6, 0), (323, -3, -5), range(-3, 4)),
    ((664, 2, 0), (678, -3, -9), range(-1, 6)),
    ((827, 4, 0), (843, -3, -9), range(-2, 6)),
    ((12909, 0, 0), (12925, -3, -13), range(0, 8)),
)


def _counterexample_row(e: EschParams, where: str) -> SurveyRow:
    """The row of e, which must be a free, positively curved counterexample.

    The one ``SurveyRow`` constructor.  A ``VerificationFailure`` headed by
    ``where`` says when e is not free, not positively curved, or embeds
    after all (naming the non-singular shifts of its normal form).
    """
    if not is_free(e):
        raise VerificationFailure(f"{where}: {e} is not free")
    if not is_pc_metric(e):
        raise VerificationFailure(f"{where}: {e} is not positively curved")
    f = pc_normal_form(e)
    window = pc_shift_window(f)
    if _first_nonsingular(window, *_moduli(*f.a, *f.b)) is not None:
        good = [c for c in window if nonsingular_shift(f, c)]
        raise VerificationFailure(f"{where}: {e} embeds after all (non-singular at c in {good})")
    return SurveyRow(f, window, h4_order(f))


def verify_known_counterexamples() -> list[SurveyRow]:
    """Re-check all nine stored counterexamples from scratch.

    Each space must be free and positively curved, its computed window must
    equal the stored one, and every shift in the window must be singular.
    """
    rows = []
    for index, (a, b, expected_window) in enumerate(KNOWN_COUNTEREXAMPLES, start=1):
        e = EschParams(a, b)
        row = _counterexample_row(e, f"row {index}")
        if row.window != expected_window:
            raise VerificationFailure(
                f"row {index}: window mismatch for {e}: "
                f"expected [{expected_window.start}, {expected_window[-1]}], "
                f"got [{row.window.start}, {row.window[-1]}]"
            )
        rows.append(row)
    return rows


def verify_infinite_families(k_max: int) -> list[tuple[str, int, SurveyRow]]:
    """Check members 0..k_max of both infinite families are counterexamples; (variant, k, row) each."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {to_decimal(k_max)}")
    return [
        (variant, k, _counterexample_row(family_cohomogeneity_two(variant, k), f"family {variant}, k={k}"))
        for variant in _FAMILIES
        for k in range(k_max + 1)
    ]


def verify_cohomogeneity_one(p_max: int) -> list[tuple[int, EmbeddingCertificate]]:
    """Check the shift -1 candidate for a=(p,1,1), b=(p+2,0,0), 1 <= p <= p_max; (p, certificate) each.

    The candidate must be (2p-1, 1, 1, 1, 1), non-singular, and positively
    curved.  The pairs come in order of p; the family's window note is
    ``embedding.COHOM1_WINDOW_NOTE``.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {to_decimal(p_max)}")
    labelled = []
    for p in range(1, p_max + 1):
        cert = make_certificate(family_cohomogeneity_one(p), -1)
        expected = BazParams((2 * p - 1, 1, 1, 1, 1))
        if cert.baz != expected:
            raise VerificationFailure(f"p={p}: candidate {cert.baz} != {expected}")
        if not (cert.baz_free and cert.baz_pc):
            raise VerificationFailure(f"p={p}: candidate {cert.baz} free={cert.baz_free} pc={cert.baz_pc}")
        labelled.append((p, cert))
    return labelled


def _residue_tables(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The distinct primes of each of 0..n, and ``masks[p][r]``, the bits i = r (mod p) of 0..n.

    The primes come from a smallest-prime-factor sieve (0 and 1 have none).
    ``masks`` holds one bitset per prime p <= n and residue r < p (set bits
    r, r + p, ..., r + p*(n // p), a few of them past n), and an empty list
    at every other index.  With n = max_abs + 1 the masks take about 7 KB
    at box 35, 280 KB at box 200 and 14 MB at box 1000 (``sys.getsizeof``
    on 64-bit CPython 3.11).
    """
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    primes: list[tuple[int, ...]] = [()] * (n + 1)
    masks: list[list[int]] = [[]] * (n + 1)
    for k in range(2, n + 1):
        p = spf[k]
        primes[k] = primes[k // p] if k // p % p == 0 else (p, *primes[k // p])
        if p == k:
            pattern = ((1 << p * (n // p + 1)) - 1) // ((1 << p) - 1)  # bits 0, p, ..., p * (n // p)
            masks[p] = [pattern << r for r in range(p)]
    return primes, masks


def _scan_shard(args: tuple[list[tuple[int, int]], int]) -> tuple[int, list[tuple]]:
    """The number of normal forms of a shard, and those whose whole window is singular.

    One loop enumerates the normal forms a=(a1, a2, 0), b=(b1, b2, b3),
    b1 = a1 + a2 - b2 - b3, of the shard's tails (b3, b2), b3 <= b2 <= -1,
    in the box b3 >= a1 - max_abs, b1 <= a1 + max_abs, that is
    a2 <= max_abs + b2 + b3 and a2 <= a1 <= max_abs + b3, and decides each
    row of a1 at once.  The window (``embedding._window``) and the chain
    (``eschenburg._in_chain``) are fixed per (b3, b2, a2), since b1 grows
    with a1, so both are checked once, as invariants, on its first form
    (a1 = a2).  The row is one int, bit i standing for a1 = a2 + i, and
    every fact below is a union of residue classes a1 = r (mod p), p a
    prime of a constant of the tail, each one mask of ``_residue_tables``.

    Freeness.  With a3 = 0, u = a1 - b3 and w = a2 - b3 the three gcds of
    ``is_free`` read gcd(b2, u*w) == gcd(a2 - b2, u*b3) ==
    gcd(a1 - b2, w*b3) == 1, and gcd(n, k*m) == 1 iff gcd(n, k) ==
    gcd(n, m) == 1 splits them into gcd(b2, w) == gcd(a2 - b2, b3) == 1,
    fixed per (b3, b2, a2), and gcd(b2*(a2 - b2), u) ==
    gcd(a1 - b2, w*b3) == 1: a1 avoids b3 mod each prime of b2*(a2 - b2)
    and b2 mod each prime of w*b3.  The count is the free row's bits.

    Singularity.  Shift c is singular iff one of the nine gcds
    gcd(s_k + 2c, a_k - b_l) of ``embedding._moduli`` exceeds 1.  Put
    X = a2 + 1 + 2c and Z = 1 + 2c + b2 + b3; in the window X > 0 > Z, and
    a2 - b2, a2 - b3, b2 and b3 are nonzero, so no constant is 0, and each
    is at most max_abs in absolute value.  Using a1 - b1 = b2 + b3 - a2 and
    reducing s_k + 2c modulo the difference:
    (1,1) gcd(X, a2 - b2 - b3) holds no a1, so c is singular for every a1;
    (1,2), (1,3) gcd(X, a1 - b2), gcd(X, a1 - b3): p | X, r = b2, b3;
    (2,1) gcd(a1 + 1 + 2c, b2 + b3 - a1) = gcd(a1 + 1 + 2c, Z):
    p | Z, r = -1 - 2c;
    (2,2), (2,3) p | a2 - b2 or a2 - b3, r = -1 - 2c;
    (3,1) gcd(a1 + a2 + 1 + 2c, b1) = gcd(a1 + a2 + 1 + 2c, Z):
    p | Z, r = -a2 - 1 - 2c;
    (3,2), (3,3) p | b2 or b3, r = -a2 - 1 - 2c.
    The free row is ANDed with each shift's union of classes, up to the
    first shift that leaves no candidate, and the bits left over are the
    forms whose whole window is singular, emitted in increasing a1.
    """
    tails, max_abs = args
    primes, masks = _residue_tables(max_abs + 1)
    count, singular = 0, []
    for b3, b2 in tails:
        for a2 in range(max_abs + b2 + b3 + 1):
            window = _window(a2, 0, b2, b3)
            if not window or not _in_chain(a2, a2, 0, 2 * a2 - b2 - b3, b2, b3):
                raise InternalError(f"tail (b3, b2, a2) = {(b3, b2, a2)} breaks the normal-form chain "
                                    "or has an empty shift window")
            w = a2 - b3
            if gcd(b2, w) != 1 or gcd(a2 - b2, b3) != 1:
                continue
            e2, e3 = b2 - a2, b3 - a2  # the bits of a1 = b2 and a1 = b3
            row = (1 << max_abs + b3 - a2 + 1) - 1
            for p in primes[-b2] + primes[a2 - b2]:
                row &= ~masks[p][e3 % p]
            for p in primes[w] + primes[-b3]:
                row &= ~masks[p][e2 % p]
            count += row.bit_count()
            d1, pd, pb = a2 - b2 - b3, primes[a2 - b2] + primes[w], primes[-b2] + primes[-b3]
            for c in window:
                if not row:
                    break
                x = a2 + 1 + 2 * c
                if gcd(x, d1) != 1:
                    continue
                u = -1 - 2 * c - a2  # the bit of a1 = -1 - 2c, and v of a1 = -a2 - 1 - 2c
                v = u - a2
                hit = 0
                for p in primes[x]:
                    m = masks[p]
                    hit |= m[e2 % p] | m[e3 % p]
                for p in primes[-1 - 2 * c - b2 - b3]:
                    m = masks[p]
                    hit |= m[u % p] | m[v % p]
                for p in pd:
                    hit |= masks[p][u % p]
                for p in pb:
                    hit |= masks[p][v % p]
                row &= hit
            while row:
                low = row & -row
                a1 = a2 + low.bit_length() - 1
                singular.append(((a1, a2, 0), (a1 + a2 - b2 - b3, b2, b3)))
                row ^= low
    return count, singular


def _pool_size(workers: int, n_tasks: int) -> int:
    """Processes to start for ``workers`` requested: at most one per usable CPU and per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers, cpus, n_tasks))


def scan_box(max_abs: int, limit: int, workers: int = 1) -> tuple[ScanStats, list[SurveyRow]]:
    """Survey every space with a canonical form inside the box.

    Enumerates the free, positively curved spaces with a canonical form
    whose entries are bounded by max_abs in absolute value, each once as
    its normal form, and decides each row of a1 at once in ``_scan_shard``
    (see the module docstring).  Each singular form's row comes from
    ``_counterexample_row``, so a form that embeds after all raises
    ``VerificationFailure`` headed ``scan_box(max_abs)``.  Returns counts
    plus up to ``limit`` rows sorted by |H^4| (ties broken lexicographically).
    ``workers`` is capped at the CPUs this process may use (and at the
    number of tails); a value of 1, or a cap of 1, scans in this process,
    and only a pooled scan loads the pool's modules.
    """
    if max_abs < 1:
        raise ValueError(f"max_abs must be >= 1, got {to_decimal(max_abs)}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {to_decimal(limit)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {to_decimal(workers)}")
    tails = [(b3, b2) for b3 in range(-max_abs, 0) for b2 in range(max(b3, -max_abs - b3), 0)]
    processes = _pool_size(workers, len(tails))

    if processes == 1:
        shards = [_scan_shard((tails, max_abs))]
    else:
        # strided shards mix cheap (b3 near -max_abs) and costly (b3 near -1) tails
        n = min(4 * processes, len(tails))
        from concurrent.futures import ProcessPoolExecutor  # only a pooled scan needs these modules
        with ProcessPoolExecutor(max_workers=processes) as pool:
            shards = list(pool.map(_scan_shard, [(tails[i::n], max_abs) for i in range(n)]))

    total = sum(count for count, _ in shards)
    rows = sorted((_counterexample_row(EschParams(a, b), f"scan_box({max_abs})") for _, keys in shards
                   for a, b in keys), key=lambda row: (row.h4, row.esch.a, row.esch.b))
    return ScanStats(total, total - len(rows), len(rows)), rows[:limit]
