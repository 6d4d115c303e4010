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
a2, with a1 innermost, and decides each as it meets it, on plain ints: the
window (``embedding._window``) and the chain (``eschenburg._in_chain``) are
taken once per (b3, b2, a2), freeness is the one fact written inline, and
each free form walks its window once with ``embedding._first_nonsingular``
over its ``embedding._moduli``, up to its first non-singular shift.  It
builds no ``EschParams`` for a form that embeds, and no certificates.  All
three counterexample jobs, the scan included, build every row in one
helper, ``_counterexample_row``, which re-decides its space by the same
walk over the window it carries: a space that embeds after all fails,
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
from math import gcd

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


def _scan_shard(args: tuple[list[tuple[int, int]], int]) -> tuple[int, list[tuple]]:
    """The number of normal forms of a shard, and those whose whole window is singular.

    One loop enumerates the normal forms a=(a1, a2, 0), b=(b1, b2, b3),
    b1 = a1 + a2 - b2 - b3, of the shard's tails (b3, b2), b3 <= b2 <= -1,
    in the box b3 >= a1 - max_abs, b1 <= a1 + max_abs, that is
    a2 <= max_abs + b2 + b3 and a2 <= a1 <= max_abs + b3, with a1
    innermost, and decides each on plain ints.  The window
    (``embedding._window``) and the chain (``eschenburg._in_chain``) are
    fixed per (b3, b2, a2), since b1 grows with a1, so both are checked
    once, as invariants, on its first form (a1 = a2).  With a3 = 0,
    u = a1 - b3 and w = a2 - b3 the three gcds of ``is_free`` read
    gcd(b2, u*w) == gcd(a2 - b2, u*b3) == gcd(a1 - b2, w*b3) == 1, and
    gcd(n, k*m) == 1 iff gcd(n, k) == gcd(n, m) == 1 splits them into
    gcd(b2, w) == gcd(a2 - b2, b3) == 1, fixed per (b3, b2, a2), and
    gcd(b2*(a2 - b2), u) == gcd(a1 - b2, w*b3) == 1 per form.  Each free
    form walks the window with ``_first_nonsingular`` over its ``_moduli``,
    up to its first non-singular shift.
    """
    tails, max_abs = args
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
            m, n = b2 * (a2 - b2), w * b3
            for a1 in range(a2, max_abs + b3 + 1):
                if gcd(m, a1 - b3) == 1 and gcd(a1 - b2, n) == 1:
                    count += 1
                    b1 = a1 + a2 - b2 - b3
                    if _first_nonsingular(window, *_moduli(a1, a2, 0, b1, b2, b3)) is None:
                        singular.append(((a1, a2, 0), (b1, b2, b3)))
    return count, singular


def _pool_size(workers: int, n_tasks: int) -> int:
    """Processes to start for ``workers`` requested: at most one per usable CPU and per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers, cpus, n_tasks))


def scan_box(max_abs: int, limit: int, workers: int = 1) -> tuple[ScanStats, list[SurveyRow]]:
    """Survey every space with a canonical form inside the box.

    Enumerates the free, positively curved spaces with a canonical form
    whose entries are bounded by max_abs in absolute value, each once as
    its normal form, and decides each on plain ints in ``_scan_shard`` (see
    the module docstring).  Each singular form's row comes from
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
