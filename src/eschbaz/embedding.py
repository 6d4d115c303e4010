"""Shift-parameterized Bazaikin candidates for a given Eschenburg space.

Rewriting an Eschenburg space with all six parameters shifted by an integer
c is an isometry, but it changes the associated Bazaikin candidate

    q^c = (2(a1+c)+1, 2(a2+c)+1, 2(a3+c)+1, -(2(b2+c)+1), -(2(b3+c)+1)).

This module decides, in exact integer arithmetic, for which shifts the
candidate is non-singular (``nonsingular_shift``) and positively curved
(``pc_shift_window``), and builds embedding certificates.  ``make_certificate``
is the one constructor of an ``EmbeddingCertificate``: ``window_scan``,
``homotopy_distinct_embeddings``, ``survey.verify_cohomogeneity_one`` and
the CLI's ``embed`` build every certificate through it, and each call
evaluates the straight-line ``is_pc_metric`` and the candidate's one
``bazaikin.freeness_failures`` list, free iff empty.  ``certified_shift``
is the one construction of the non-singular shifts +-2**(mu-1) * P**mu;
``homotopy_distinct_embeddings`` walks it for hosts with distinct |H^6|.

``shift_prime_product`` checks a space (freeness, nine nonzero differences)
and computes its P in one function, memoized for the space being walked
(``functools.lru_cache(maxsize=1)``, keyed on the parameters): every
caller asks for one space's P in consecutive calls, so the certified
shifts of one space and its distinct hosts share one check and one P.
Factors are reused across spaces by ``arith.factorize``'s own memo.
Errors are never cached: an invalid space raises on every call.

The window bounds, the moduli and the three-gcd walk over shifts each live
in one private helper on plain ints (``_window``, ``_moduli``,
``_first_nonsingular``); ``pc_shift_window`` is ``_window`` on a form that
it checks is in the chain, and ``nonsingular_shift`` is the walk over the
one shift c.  The box scan (``survey._scan_shard``) reads ``_window`` only
at the first and last a2 of each tail (b3, b2), whose rows share the
window's end and start it at (1 - a2)//2, and decides each row of a1 by
residue classes, calling neither ``_moduli`` nor ``_first_nonsingular``:
those two serve the per-space path (``nonsingular_shift``,
``shift_prime_product`` and ``survey._counterexample_row``, which re-walks
every row the scan prints) and the tests' per-form oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import bazaikin
from .arith import InternalError, factorize, to_decimal
from .bazaikin import BazParams
from .eschenburg import (
    EschParams,
    _in_chain,
    canonicalize,
    family_cohomogeneity_one,
    is_free,
    is_pc_metric,
    pc_normal_form,
    shift,
)


# The normal form of the cohomogeneity-one family a=(p,1,1), b=(p+2,0,0) is
# a=(t,0,0), b=(t+2,-1,-1) with t = p-1.  Its curvature window is one point,
# although a closed range of two shifts is sometimes quoted for it; reports
# carry a note instead of silently adopting either reading.
COHOM1_WINDOW_NOTE = (
    "cohomogeneity-one family a=(p,1,1), b=(p+2,0,0): curvature window is "
    "sometimes quoted as -1 <= c <= 0, but the strict pairwise-sum "
    "inequalities give exactly {-1} (at c=0 the pair sum q4+q5 equals -2 "
    "while the others are positive)"
)


@dataclass(frozen=True, slots=True)
class EmbeddingCertificate:
    """One (Eschenburg parameters, shift, Bazaikin candidate) triple.

    ``baz`` always equals candidate_q(esch, shift); the boolean flags agree
    with the predicate modules on recomputation.  ``h6`` is |H^6| of the
    candidate when it is non-singular and 0 otherwise; ``offending_pairs``
    lists the violated gcd conditions (1-based index pairs) when singular.
    """

    esch: EschParams
    shift: int
    baz: BazParams
    baz_free: bool
    baz_pc: bool
    esch_pc: bool
    h6: int
    offending_pairs: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]


@dataclass(frozen=True, slots=True)
class WindowReport:
    """All certificates across the positive-curvature shift window.

    ``esch`` is in positive-curvature normal form; every certificate in the
    window is positively curved by construction, and ``any_nonsingular``
    records whether at least one is a genuine Bazaikin space.
    """

    esch: EschParams
    window: range
    certificates: tuple[EmbeddingCertificate, ...]
    any_nonsingular: bool
    notes: tuple[str, ...]


def candidate_q(e: EschParams, c: int) -> BazParams:
    """The Bazaikin candidate for e rewritten with shift c; sum is 2(b1+c)+1."""
    a, b = e.a, e.b
    return BazParams(
        (
            2 * (a[0] + c) + 1,
            2 * (a[1] + c) + 1,
            2 * (a[2] + c) + 1,
            -(2 * (b[1] + c) + 1),
            -(2 * (b[2] + c) + 1),
        )
    )


def _moduli(a1: int, a2: int, a3: int, b1: int, b2: int, b3: int) -> tuple[int, ...]:
    """(s_1, D_1, s_2, D_2, s_3, D_3), with s_k = a_i + a_j + 1, D_k = prod_l (a_k - b_l).

    For free parameters, shift c is non-singular iff gcd(s_k + 2c, D_k) == 1
    for every k: the nine conditions gcd(s_k + 2c, a_k - b_l) == 1 merge,
    three at a time, into one against their product (a zero difference
    zeroes D_k, and gcd(x, 0) == 1 iff |x| == 1, as for the single
    difference).
    """
    return (
        a2 + a3 + 1, (a1 - b1) * (a1 - b2) * (a1 - b3),
        a1 + a3 + 1, (a2 - b1) * (a2 - b2) * (a2 - b3),
        a1 + a2 + 1, (a3 - b1) * (a3 - b2) * (a3 - b3),
    )


def nonsingular_shift(e: EschParams, c: int) -> bool:
    """True iff the shift-c candidate is a genuine (non-singular) Bazaikin space.

    Equivalent to e being free plus the nine conditions
    gcd(a_i + a_j + 1 + 2c, a_k - b_l) == 1, where {i, j} is the complement
    of k; checked as three gcds, by ``_first_nonsingular`` over the one
    shift c.
    """
    return is_free(e) and _first_nonsingular((c,), *_moduli(*e.a, *e.b)) is not None


def _first_nonsingular(window: Iterable[int], s1: int, d1: int, s2: int, d2: int, s3: int, d3: int) -> int | None:
    """The first c in window with gcd(s_k + 2c, D_k) == 1 for k = 1, 2, 3 (the ``_moduli`` values)."""
    for c in window:
        t = 2 * c
        if gcd(s1 + t, d1) == 1 and gcd(s2 + t, d2) == 1 and gcd(s3 + t, d3) == 1:
            return c
    return None


def make_certificate(e: EschParams, c: int) -> EmbeddingCertificate:
    """Every certificate field for the shift-c candidate of e; free iff no ``freeness_failures``."""
    q = candidate_q(e, c)
    offending = bazaikin.freeness_failures(q)
    free = not offending
    return EmbeddingCertificate(
        esch=e,
        shift=c,
        baz=q,
        baz_free=free,
        baz_pc=bazaikin.is_pc_baz(q),
        esch_pc=is_pc_metric(e),
        h6=bazaikin.h6_order(q) if free else 0,
        offending_pairs=tuple(offending),
    )


def pc_shift_window(e: EschParams) -> range:
    """All integer shifts whose candidate is positively curved.

    e must be in normal form; the window is the c with
    -(a2 + a3 + 1) < 2c < -(b2 + b3 + 1), solved in integer arithmetic by
    ``_window`` (no halving, no floats).  Nonempty for every input in normal
    form: the open interval has half-length >= 1 and its endpoints cannot
    both be even integers at the minimal length.
    """
    if not _in_chain(*e.a, *e.b):
        raise ValueError(f"{e} is not in positive-curvature normal form")
    window = _window(*e.a[1:], *e.b[1:])
    if not window:
        raise InternalError(f"{e} is in normal form but has an empty shift window")
    return window


def _window(a2: int, a3: int, b2: int, b3: int) -> range:
    """The c with -(a2 + a3 + 1) < 2c < -(b2 + b3 + 1), on plain ints.

    The least such c is (-(a2 + a3 + 1))//2 + 1 = (1 - a2 - a3)//2 and the
    greatest is (-(b2 + b3 + 1) - 1)//2 = -(b2 + b3)//2 - 1: a floor
    quotient moves by one when its numerator moves by two.
    """
    return range((1 - a2 - a3) // 2, -(b2 + b3) // 2)


def window_scan(e: EschParams, max_shifts: int | None = None) -> WindowReport:
    """Certificates for every shift in the positive-curvature window.

    Normalizes e first, so the window is reported in normal-form
    coordinates.  Certificates are ordered by shift.  A window of more than
    ``max_shifts`` shifts, if given, raises ValueError before any
    certificate is built.
    """
    f = pc_normal_form(e)
    window = pc_shift_window(f)
    # stop - start, since len() of a range overflows past 2**63 - 1
    if max_shifts is not None and window.stop - window.start > max_shifts:
        raise ValueError(f"the curvature window of {e} has {to_decimal(window.stop - window.start)} "
                         f"shifts; window is capped at {to_decimal(max_shifts)} shifts")
    certificates = tuple(make_certificate(f, c) for c in window)
    notes = (COHOM1_WINDOW_NOTE,) if f == canonicalize(family_cohomogeneity_one(f.a[0] + 1)) else ()
    return WindowReport(
        esch=f,
        window=window,
        certificates=certificates,
        any_nonsingular=any(cert.baz_free for cert in certificates),
        notes=notes,
    )


@lru_cache(maxsize=1)
def shift_prime_product(e: EschParams) -> int:
    """Product P underlying the certified shifts.

    Raises ValueError unless e is free with all nine differences a_k - b_l
    nonzero.  For each of the nine (k, l) pairs, take the distinct prime
    divisors of a_k - b_l that are coprime to s_k = a_i + a_j + 1 ({i, j}
    the complement of k); each such prime contributes one factor of P per
    pair in which it qualifies.  ``_moduli`` gives s_k and D_k, and a_k ==
    b_l for some l iff D_k == 0.  An empty product is 1.  Memoized (see the
    module docstring); ``shift_prime_product.__wrapped__`` is uncached.
    """
    if not is_free(e):
        raise ValueError(f"certified shifts exist only for free parameters, got {e}")
    # a_k == b_l pins one candidate pair sum at 0 for every shift, so the
    # gcd-equals-2 condition degenerates to |other pair sum| == 2 and at most
    # two shifts can ever work; the certified-shift construction is void.
    s1, d1, s2, d2, s3, d3 = _moduli(*e.a, *e.b)
    if 0 in (d1, d2, d3):
        raise ValueError(
            "certified shifts need all nine differences a_k - b_l nonzero; "
            f"{e} has a vanishing difference (free parameters with a vanishing "
            "difference admit at most two non-singular shifts)"
        )
    product = 1
    for ak, pair_sum in zip(e.a, (s1, s2, s3)):
        for bl in e.b:
            for p, _ in factorize(ak - bl):
                if gcd(p, pair_sum) == 1:
                    product *= p
    return product


def certified_shift(e: EschParams, mu: int, sign: int) -> int:
    """A shift guaranteed to produce a non-singular candidate.

    Returns sign * 2**(mu-1) * P**mu with P from ``shift_prime_product``.
    Requires mu >= 1, sign in (1, -1), and e free with all nine differences
    a_k - b_l nonzero; e is checked and P computed once per space (see
    ``shift_prime_product``); ``FactorizationIncomplete`` propagates.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {to_decimal(mu)}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {to_decimal(sign)}")
    return sign * 2 ** (mu - 1) * shift_prime_product(e) ** mu


def homotopy_distinct_embeddings(e: EschParams, n: int) -> list[EmbeddingCertificate]:
    """n non-singular candidates with pairwise distinct |H^6|.

    Walks ``certified_shift(e, mu, sign)`` for mu = 1, 2, ... and sign = +1,
    -1, dropping any candidate whose |H^6| repeats an earlier one, so e must
    meet ``certified_shift``'s preconditions and fails with its errors.
    Since |sigma_3| is affine in the shift with nonzero slope (|H^4| is odd
    for free parameters), each |H^6| value is shared by at most two shifts,
    so mu <= n + 1 always suffices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {to_decimal(n)}")
    out: list[EmbeddingCertificate] = []
    seen: set[int] = set()
    for mu in range(1, n + 2):
        for sign in (1, -1):
            c = certified_shift(e, mu, sign)
            cert = make_certificate(e, c)
            if not cert.baz_free:
                raise InternalError(f"certified shift {to_decimal(c)} produced a singular candidate for {e}")
            if cert.h6 in seen:
                continue
            seen.add(cert.h6)
            out.append(cert)
            if len(out) == n:
                return out
    raise InternalError(f"could not reach {n} distinct |H^6| values for {e}")


def dual_embedding(e: EschParams, c: int) -> tuple[EschParams, BazParams]:
    """The swapped Eschenburg space and its Bazaikin host.

    With q = candidate_q(e, c) and qs its sum, returns the diffeomorphic
    (in general non-isometric) space given by a' = b + c, b' = a + c,
    together with (qs, -q4, -q5, -q2, -q3) -- which is exactly the shift-0
    candidate of the swapped space.  Non-singularity carries over and
    |H^6| is unchanged (the new 6-tuple is a signed permutation of the old).
    """
    if not nonsingular_shift(e, c):
        raise ValueError(f"shift {to_decimal(c)} of {e} yields a singular candidate")
    q = candidate_q(e, c).q
    qs = sum(q)
    swapped = shift(EschParams(e.b, e.a), c)
    dual = BazParams((qs, -q[3], -q[4], -q[1], -q[2]))
    if dual != candidate_q(swapped, 0):
        raise InternalError(f"the dual host at shift {to_decimal(c)} of {e} differs from the swapped "
                            "space's shift-0 candidate")
    return swapped, dual
