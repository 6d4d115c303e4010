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
``_scan_shard``, enumerates the forms and decides each as it meets it, on
plain ints: the freeness test, the curvature window (in shifts) and the
moduli of ``nonsingular_shift`` are written inline, and each free form
walks its window once with ``embedding._first_nonsingular``, up to its
first non-singular shift.  It builds no ``EschParams`` for a form that
embeds, and no certificates.  The two counterexample jobs decide their
spaces by the same walk over the window they report, in one helper, and
build no certificates either: a space that embeds after all fails, naming
its non-singular shifts.  Every row the three jobs build is a
counterexample.  The cohomogeneity-one job and the ``window`` command keep
the full-certificate path, which is also the test oracle for the fast one.
``scan_box`` can shard its (a1, a2) pairs over worker processes, at most
one per CPU this process may use; rows are merged by deterministic sort, so
output is identical for any worker count.  The pool's modules
(``concurrent.futures``, ``multiprocessing``) load only when a pool starts,
so no other caller of the package pays for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import starmap
from math import gcd

from .arith import InternalError, to_decimal
from .bazaikin import BazParams
from .embedding import (
    EmbeddingCertificate,
    _first_nonsingular,
    _moduli,
    make_certificate,
    nonsingular_shift,
    pc_shift_window,
)
from .eschenburg import (
    EschParams,
    family_cohomogeneity_one,
    family_cohomogeneity_two,
    h4_order,
    is_free,
    is_pc_metric,
    pc_normal_form,
)


class VerificationFailure(Exception):
    """A batch check found a mismatch; the message names what and where."""


@dataclass(frozen=True)
class SurveyRow:
    """One counterexample: a free space ``esch`` in positive-curvature normal form.

    Every shift of its curvature ``window`` (never empty, see
    ``pc_shift_window``) gives a singular candidate; ``h4`` is |H^4|.
    """

    esch: EschParams
    window: range
    h4: int


@dataclass(frozen=True)
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

    A ``VerificationFailure`` headed by ``where`` says when e is not free,
    not positively curved, or embeds after all (naming the non-singular
    shifts of its normal form).
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


def verify_infinite_families(k_max: int) -> list[SurveyRow]:
    """Check members 0..k_max of both infinite families are counterexamples."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {to_decimal(k_max)}")
    return [
        _counterexample_row(family_cohomogeneity_two(variant, k), f"family {variant}, k={k}")
        for variant in ("A", "B")
        for k in range(k_max + 1)
    ]


def verify_cohomogeneity_one(p_max: int) -> tuple[EmbeddingCertificate, ...]:
    """Check the shift -1 candidate for a=(p,1,1), b=(p+2,0,0), 1 <= p <= p_max.

    The candidate must be (2p-1, 1, 1, 1, 1), non-singular, and positively
    curved.  Returns the certificates in order of p; the family's window
    note is ``embedding.COHOM1_WINDOW_NOTE``.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {to_decimal(p_max)}")
    certificates = []
    for p in range(1, p_max + 1):
        cert = make_certificate(family_cohomogeneity_one(p), -1)
        expected = BazParams((2 * p - 1, 1, 1, 1, 1))
        if cert.baz != expected:
            raise VerificationFailure(f"p={p}: candidate {cert.baz} != {expected}")
        if not (cert.baz_free and cert.baz_pc):
            raise VerificationFailure(f"p={p}: candidate {cert.baz} free={cert.baz_free} pc={cert.baz_pc}")
        certificates.append(cert)
    return tuple(certificates)


def _scan_shard(args: tuple[list[tuple[int, int]], int]) -> tuple[int, list[tuple]]:
    """The number of normal forms of a shard, and those whose whole window is singular.

    One loop enumerates the normal forms a=(a1, a2, 0), b=(b1, b2, b3),
    b3 <= b2 <= -1, b1 = a1 + a2 - b2 - b3, of the shard's (a1, a2) pairs in
    the box b3 >= a1 - max_abs, b1 <= a1 + max_abs, and decides each on plain
    ints.  With a3 = 0 the embedding helpers it writes inline reduce as
    follows:

    - ``pc_shift_window`` is range(-(a2 + 1)//2 + 1, (-(b2 + b3 + 1) - 1)//2 + 1)
      = range(c0, -(b2 + b3)//2) with c0 = (1 - a2)//2 (a floor quotient
      moves by one when its numerator moves by two);
    - ``_moduli(a1, a2, 0, b1, b2, b3)`` pairs s_k = a2 + 1, a1 + 1,
      a1 + a2 + 1 with D_1 = (a1 - b1)(a1 - b2)u, D_2 = (a2 - b1)(a2 - b2)w
      and D_3 = -v*b3, for u = a1 - b3, w = a2 - b3 and v = b1*b2; as
      b1 + b2 = a1 + a2 - b3, D_1 = (v - a1*w)u and D_2 = (v - a2*u)w (the
      sign of D_3 leaves its gcds alone);
    - ``_freeness_moduli(a1, a2, 0, b3)`` is (u*w, u*b3, w*b3), against b2, a2 - b2, a1 - b2.

    So c0 and the s_k are fixed per pair, u, w and the freeness moduli per
    b3, and each free form walks its window with ``_first_nonsingular``,
    given the s_k and its D_k as six plain ints, up to its first
    non-singular shift.  The chain and a nonempty window, both checked by
    ``pc_shift_window``, are checked on every form, as invariants.
    """
    apairs, max_abs = args
    count, singular = 0, []
    for a1, a2 in apairs:
        c0 = (1 - a2) // 2
        s1, s2 = a2 + 1, a1 + 1
        s3 = s2 + a2
        for b3 in range(a1 - max_abs, 0):
            u, w = a1 - b3, a2 - b3
            m1, m2, m3 = u * w, u * b3, w * b3
            for b2 in range(max(b3, a2 - max_abs - b3), 0):
                if gcd(b2, m1) == 1 and gcd(a2 - b2, m2) == 1 and gcd(a1 - b2, m3) == 1:
                    count += 1
                    b1 = a1 + a2 - b2 - b3
                    window = range(c0, -(b2 + b3) // 2)
                    if not window or not b3 <= b2 < 0 <= a2 <= a1 < b1:
                        raise InternalError(f"enumerated form {EschParams((a1, a2, 0), (b1, b2, b3))} breaks "
                                            "the normal-form chain or has an empty shift window")
                    v = b1 * b2
                    if _first_nonsingular(window, s1, (v - a1 * w) * u, s2, (v - a2 * u) * w, s3, v * b3) is None:
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
    its normal form: the box is exactly the bounds of the mirrored canonical
    form, b3 >= a1 - max_abs and b1 <= a1 + max_abs.  Each form is decided
    as it is enumerated, on plain ints, in one loop (see ``_scan_shard``);
    the walk stops at the first non-singular shift of the curvature window,
    and only a singular form becomes an ``EschParams``.  Returns counts plus
    up to ``limit`` counterexample rows sorted by |H^4| (ties broken
    lexicographically).  ``workers`` is capped at the CPUs this process may
    use (and at the number of (a1, a2) pairs); a value of 1, or a cap of 1,
    scans in this process, and only a pooled scan loads the pool's modules.
    """
    if max_abs < 1:
        raise ValueError(f"max_abs must be >= 1, got {to_decimal(max_abs)}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {to_decimal(limit)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {to_decimal(workers)}")
    apairs = [(a1, a2) for a1 in range(max_abs + 1) for a2 in range(a1 + 1)]
    processes = _pool_size(workers, len(apairs))

    if processes == 1:
        shards = [_scan_shard((apairs, max_abs))]
    else:
        # strided shards mix cheap (large a1) and costly (small a1) pairs
        n = min(4 * processes, len(apairs))
        from concurrent.futures import ProcessPoolExecutor  # only a pooled scan needs these modules
        with ProcessPoolExecutor(max_workers=processes) as pool:
            shards = list(pool.map(_scan_shard, [(apairs[i::n], max_abs) for i in range(n)]))

    total = sum(count for count, _ in shards)
    rows = sorted((SurveyRow(f, pc_shift_window(f), h4_order(f)) for _, keys in shards
                   for f in starmap(EschParams, keys)), key=lambda row: (row.h4, row.esch.a, row.esch.b))
    return ScanStats(total, total - len(rows), len(rows)), rows[:limit]
