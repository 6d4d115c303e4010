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
ints, and does what the tail fixes once per tail.  Once the tail is fixed,
each freeness gcd and each of the nine singularity tests reads one shifted
pattern of a tail constant's primes: one bit where the test is free of a1,
else residue classes a1 = r (mod p) (derived in ``_scan_shard``'s
docstring), so the row is one int used as a bitset: the free forms are the
row minus the freeness classes, and a form whose whole window is singular
lies in every shift's union of classes.  Families A and B are the covering
congruences a1 = 39 and 12909 (mod 15015) of this kind.  The scan builds
no ``EschParams`` for a form that embeds, and no certificates.  All three
counterexample jobs, the scan included, build every row in one helper,
``_counterexample_row``, which re-decides its space by the three-gcd walk
(``embedding._first_nonsingular``) over the window it carries, not by
residue classes: a space that embeds after all fails, naming its
non-singular shifts.  The cohomogeneity-one job and the ``window`` command
keep the full-certificate path, which is also the test oracle for the fast
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

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


def _gcd_patterns(max_abs: int) -> list[int]:
    """``g[k]`` for k in 1..max_abs: bit j is set iff gcd(j - max_abs, k) > 1, for j in 0..3*max_abs.

    So ``g[k] >> (max_abs + t)`` has bit a1 set iff gcd(a1 + t, k) > 1,
    that is a1 = -t (mod p) for some prime p of k, whenever
    -max_abs <= a1 + t <= 2*max_abs.  g[k] is the union of one pattern per
    prime p of k (the bits j = max_abs (mod p), a few of them past
    3*max_abs), built by one prime sieve on g itself: when the loop reaches
    p, g[p] is still 0 iff no smaller prime divides p, and a prime's
    pattern is built once and ORed into g[p], g[2p], ...; g[0] and g[1]
    are 0.  The patterns take about 1.4 KB at box 35, 21 KB at box 200 and
    0.43 MB at box 1000 (``sys.getsizeof`` on 64-bit CPython 3.11).
    """
    n = 3 * max_abs
    g = [0] * (max_abs + 1)
    for p in range(2, max_abs + 1):
        if not g[p]:  # p is prime; its pattern is bits 0, p, ..., p * (n // p), moved up by max_abs % p
            pattern = ((1 << p * (n // p + 1)) - 1) // ((1 << p) - 1) << max_abs % p
            for k in range(p, max_abs + 1, p):
                g[k] |= pattern
    return g


def _scan_shard(tails: list[tuple[int, int]], max_abs: int) -> tuple[int, list[tuple]]:
    """The number of normal forms of the tails, and those whose whole window is singular.

    One loop enumerates the normal forms a=(a1, a2, 0), b=(b1, b2, b3),
    b1 = a1 + a2 - b2 - b3, of the tails (b3, b2), b3 <= b2 <= -1,
    in the box b3 >= a1 - max_abs, b1 <= a1 + max_abs, that is
    a2 <= max_abs + b2 + b3 and a2 <= a1 <= max_abs + b3, and decides each
    row of a1 at once.  The row of (b3, b2, a2) is one int, bit i standing
    for a1 = i, and every fact below is a union of sets
    gcd(a1 + t, k) > 1, k a nonzero constant of the tail, each one shifted
    pattern ``g[|k|] >> (max_abs + t)`` of ``_gcd_patterns``.

    Invariants.  A row's chain (``eschenburg._in_chain``) is its first
    form's, a1 = a2, and is checked at a tail's first and last a2 only: the
    chain's one moving part, b1 - a1 = a2 - b2 - b3 > 0, grows with a2, so
    the two ends cover every row.  The chain implies a non-empty window
    (``embedding._window``): b3 <= b2 <= -1 and a2 >= 0 put the shift 0 in
    the window [(1 - a2)//2, -(b2 + b3)//2), so the window is not checked
    apart, and the error names both faults.  As a2 grows the window's
    start falls and its end is fixed, and the a2 = 0 window gives that
    end.  A tail outside the box (``scan_box`` makes none) raises at its
    last a2 < 0.

    Freeness.  With a3 = 0, u = a1 - b3 and w = a2 - b3 the three gcds of
    ``is_free`` read gcd(b2, u*w) == gcd(a2 - b2, u*b3) ==
    gcd(a1 - b2, w*b3) == 1, and gcd(n, k*m) == 1 iff gcd(n, k) ==
    gcd(n, m) == 1 splits them into gcd(b2, w) == gcd(a2 - b2, b3) == 1
    and gcd(b2*(a2 - b2), u) == gcd(a1 - b2, w*b3) == 1: a1 avoids
    gcd(a1 - b3, k) > 1 for k = b2 and a2 - b2, and gcd(a1 - b2, k) > 1
    for k = w and b3.  The tail's row clears the sets of b2 and b3, and its
    bit a2 is the first pair, so a row with that bit clear holds no free
    form; each row clears those of a2 - b2 and w, and the count is its bits.

    Singularity.  Shift c is singular iff one of the nine gcds
    gcd(s_k + 2c, a_k - b_l) of ``embedding._moduli`` exceeds 1.  Put
    X = a2 + 1 + 2c and Z = 1 + 2c + b2 + b3 = X - (a2 - b2 - b3); in the
    window X > 0 > Z, and a2 - b2, a2 - b3, b2 and b3 are nonzero, so no
    constant is 0, and each is at most max_abs in absolute value.  Using
    a1 - b1 = b2 + b3 - a2 and reducing s_k + 2c modulo the difference:
    (1,1) gcd(X, a2 - b2 - b3) holds no a1, so c is singular for every a1
    iff bit X of ``g[a2 - b2 - b3] >> max_abs`` is set (0 < X < a2 - b2 - b3);
    (1,2), (1,3) gcd(a1 - b2, X), gcd(a1 - b3, X): k = X, t = -b2, -b3;
    (2,1) gcd(a1 + 1 + 2c, b2 + b3 - a1) = gcd(a1 + 1 + 2c, Z):
    k = |Z|, t = 1 + 2c = X - a2;
    (2,2), (2,3) k = a2 - b2 or a2 - b3, t = X - a2;
    (3,1) gcd(a1 + a2 + 1 + 2c, b1) = gcd(a1 + X, Z): k = |Z|, t = X;
    (3,2), (3,3) k = b2 or b3, t = X.
    Every a1 + t lies in [-max_abs, 2*max_abs], where the patterns hold.
    The union of (1,2), (1,3), (3,2) and (3,3) depends on the tail and X
    alone, so it is built once per tail and X, on first use.  The free row
    is ANDed with each shift's union, up to the first shift that leaves no
    candidate, and the bits left over are the forms whose whole window is
    singular, emitted in increasing a1.
    """
    g = _gcd_patterns(max_abs)
    count, singular = 0, []
    for b3, b2 in tails:
        last = max_abs + b2 + b3
        for a2 in (0, last):
            if not _in_chain(a2, a2, 0, 2 * a2 - b2 - b3, b2, b3):
                raise InternalError(f"tail (b3, b2, a2) = {(b3, b2, a2)} breaks the normal-form chain "
                                    "or has an empty shift window")
        head = _window(0, 0, b2, b3)  # every row's window ends where the a2 = 0 row's does
        at_b2, at_b3 = max_abs - b2, max_abs - b3  # the shifts for t = -b2 and t = -b3
        free = (1 << max_abs + b3 + 1) - 1 & ~(g[-b2] >> at_b3) & ~(g[-b3] >> at_b2)
        gb = g[-b2] | g[-b3]
        by_x: list[int | None] = [None] * (last + 2 * head.stop)  # X <= last - 1 + 2 * head.stop
        for a2 in range(last + 1):
            if not free >> a2 & 1:  # gcd(b2, a2 - b3) > 1 or gcd(a2 - b2, b3) > 1: no a1 is free
                continue
            ga, gw = g[a2 - b2], g[a2 - b3]
            row = free >> a2 << a2 & ~(ga >> at_b3) & ~(gw >> at_b2)
            count += row.bit_count()
            d1, gd = a2 - b2 - b3, ga | gw
            whole = g[d1] >> max_abs  # bit X set iff gcd(X, a2 - b2 - b3) > 1
            for x in range(a2 + 1 + 2 * ((1 - a2) // 2), a2 + 1 + 2 * head.stop, 2):  # X over the window
                if not row:
                    break
                if whole >> x & 1:
                    continue
                hit = by_x[x]
                if hit is None:
                    hit = by_x[x] = g[x] >> at_b2 | g[x] >> at_b3 | gb >> max_abs + x
                gz = g[d1 - x]
                row &= hit | (gd | gz) >> max_abs + x - a2 | gz >> max_abs + x
            while row:
                low = row & -row
                a1 = low.bit_length() - 1
                singular.append(((a1, a2, 0), (a1 + a2 - b2 - b3, b2, b3)))
                row ^= low
    return count, singular


def scan_box(max_abs: int, limit: int, workers: int = 1) -> tuple[ScanStats, list[SurveyRow]]:
    """Survey every space with a canonical form inside the box.

    Enumerates the free, positively curved spaces with a canonical form
    whose entries are bounded by max_abs in absolute value, each once as
    its normal form, and decides each row of a1 at once in ``_scan_shard``
    (see the module docstring).  Each singular form's row comes from
    ``_counterexample_row``, so a form that embeds after all raises
    ``VerificationFailure`` headed ``scan_box(max_abs)``.  Returns counts
    plus up to ``limit`` rows sorted by |H^4| (ties broken lexicographically).
    ``workers`` is accepted for callers that pass 1 and selects nothing:
    the scan runs in this process.  max_abs and limit go through
    ``operator.index`` before the scan: a float raises TypeError and a
    bool becomes an int.
    """
    max_abs, limit = index(max_abs), index(limit)
    if max_abs < 1:
        raise ValueError(f"max_abs must be >= 1, got {to_decimal(max_abs)}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {to_decimal(limit)}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {to_decimal(workers)}")
    tails = [(b3, b2) for b3 in range(-max_abs, 0) for b2 in range(max(b3, -max_abs - b3), 0)]
    total, keys = _scan_shard(tails, max_abs)
    rows = sorted((_counterexample_row(EschParams(a, b), f"scan_box({max_abs})") for a, b in keys),
                  key=lambda row: (row.h4, row.esch.a, row.esch.b))
    return ScanStats(total, total - len(rows), len(rows)), rows[:limit]
