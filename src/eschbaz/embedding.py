"""Shift-parameterized Bazaikin candidates for a given Eschenburg space.

Rewriting an Eschenburg space with all six parameters shifted by an integer
c is an isometry, but it changes the associated Bazaikin candidate

    q^c = (2(a1+c)+1, 2(a2+c)+1, 2(a3+c)+1, -(2(b2+c)+1), -(2(b3+c)+1)).

This module decides, in exact integer arithmetic, for which shifts the
candidate is non-singular (``nonsingular_shift``; ``first_nonsingular_shift``
is the three-gcd form used by box scans) and positively curved
(``pc_shift_window``), builds embedding certificates, and tracks when two
shifts can share the same |H^6| (``collision_locus``).  ``certified_shift``
is the one construction of the non-singular shifts +-2**(mu-1) * P**mu;
``homotopy_distinct_embeddings`` walks it for hosts with distinct |H^6|.

``shift_prime_product`` is memoized by ``functools.lru_cache`` with a fixed
``SHIFT_PRODUCT_CACHE_SIZE`` (1024) entries, keyed on the parameters, so
the certified shifts of one space and its distinct hosts share one P and
factor its nine differences once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import bazaikin
from .arith import InternalError, elementary_symmetric, factorize, to_decimal
from .bazaikin import BazParams
from .eschenburg import (
    EschParams,
    in_pc_normal_form,
    is_free,
    is_pc_metric,
    pc_normal_form,
)


SHIFT_PRODUCT_CACHE_SIZE = 1024


class NormalFormError(ValueError):
    """Input was required to be in positive-curvature normal form but is not."""


class SingularCandidateError(ValueError):
    """The requested shift yields a singular Bazaikin candidate."""


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


@dataclass(frozen=True)
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
    offending_pairs: tuple[tuple[tuple[int, int], tuple[int, int], int], ...] = ()


@dataclass(frozen=True)
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
    notes: tuple[str, ...] = ()


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


def _singularity_moduli(f: EschParams) -> tuple[tuple[int, int], ...]:
    """(s_k, D_k) for k = 1, 2, 3, with s_k = a_i + a_j + 1, D_k = prod_l (a_k - b_l).

    For free f, shift c is non-singular iff gcd(s_k + 2c, D_k) == 1 for
    every k: the nine conditions gcd(s_k + 2c, a_k - b_l) == 1 merge, three
    at a time, into one against their product (a zero difference zeroes
    D_k, and gcd(x, 0) == 1 iff |x| == 1, as for the single difference).
    """
    (a1, a2, a3), (b1, b2, b3) = f.a, f.b
    return (
        (a2 + a3 + 1, (a1 - b1) * (a1 - b2) * (a1 - b3)),
        (a1 + a3 + 1, (a2 - b1) * (a2 - b2) * (a2 - b3)),
        (a1 + a2 + 1, (a3 - b1) * (a3 - b2) * (a3 - b3)),
    )


def nonsingular_shift(e: EschParams, c: int) -> bool:
    """True iff the shift-c candidate is a genuine (non-singular) Bazaikin space.

    Equivalent to e being free plus the nine conditions
    gcd(a_i + a_j + 1 + 2c, a_k - b_l) == 1, where {i, j} is the complement
    of k; checked as three gcds (see ``_singularity_moduli``).
    """
    return is_free(e) and all(gcd(s + 2 * c, d) == 1 for s, d in _singularity_moduli(e))


def first_nonsingular_shift(f: EschParams) -> int | None:
    """The smallest shift in the curvature window with a non-singular candidate.

    f must be free and in positive-curvature normal form; freeness is not
    rechecked.  Each shift costs three gcds (see ``_singularity_moduli``)
    and the walk stops at the first non-singular one.  None means every
    shift in the window is singular.
    """
    window = pc_shift_window(f)
    (s1, d1), (s2, d2), (s3, d3) = _singularity_moduli(f)
    for c in window:
        t = 2 * c
        if gcd(s1 + t, d1) == 1 and gcd(s2 + t, d2) == 1 and gcd(s3 + t, d3) == 1:
            return c
    return None


def make_certificate(e: EschParams, c: int) -> EmbeddingCertificate:
    """Evaluate every certificate field for the shift-c candidate of e."""
    q = candidate_q(e, c)
    free = bazaikin.is_free_baz(q)
    return EmbeddingCertificate(
        esch=e,
        shift=c,
        baz=q,
        baz_free=free,
        baz_pc=bazaikin.is_pc_baz(q),
        esch_pc=is_pc_metric(e),
        h6=bazaikin.h6_order(q) if free else 0,
        offending_pairs=() if free else tuple(bazaikin.freeness_failures(q)),
    )


def pc_shift_window(e: EschParams) -> range:
    """All integer shifts whose candidate is positively curved.

    Solves -(a2 + a3 + 1) < 2c < -(b2 + b3 + 1) in integer arithmetic (no
    halving, no floats).  Nonempty for every input in normal form: the open
    interval has half-length >= 1 and its endpoints cannot both be even
    integers at the minimal length.
    """
    if not in_pc_normal_form(e):
        raise NormalFormError(f"{e} is not in positive-curvature normal form")
    lo = -(e.a[1] + e.a[2] + 1)  # 2c must exceed this
    hi = -(e.b[1] + e.b[2] + 1)  # 2c must stay below this
    c_min = lo // 2 + 1
    c_max = (hi - 1) // 2
    window = range(c_min, c_max + 1)
    if not window:
        raise InternalError(f"{e} is in normal form but has an empty shift window")
    return window


def _is_cohom1_normal_form(e: EschParams) -> bool:
    t = e.a[0]
    return e.a == (t, 0, 0) and e.b == (t + 2, -1, -1)


def window_scan(e: EschParams) -> WindowReport:
    """Certificates for every shift in the positive-curvature window.

    Normalizes e first, so the window is reported in normal-form
    coordinates.  Certificates are ordered by shift.
    """
    f = pc_normal_form(e)
    window = pc_shift_window(f)
    certificates = tuple(make_certificate(f, c) for c in window)
    notes = (COHOM1_WINDOW_NOTE,) if _is_cohom1_normal_form(f) else ()
    return WindowReport(
        esch=f,
        window=window,
        certificates=certificates,
        any_nonsingular=any(cert.baz_free for cert in certificates),
        notes=notes,
    )


@lru_cache(maxsize=SHIFT_PRODUCT_CACHE_SIZE)
def shift_prime_product(e: EschParams) -> int:
    """Product P underlying the certified shifts.

    For each of the nine (k, l) pairs, take the distinct prime divisors of
    a_k - b_l that are coprime to s_k = a_i + a_j + 1 ({i, j} the complement
    of k, s_k as in ``_singularity_moduli``); each such prime contributes
    one factor of P per pair in which it qualifies.  Zero differences
    contribute nothing; an empty product is 1.  Memoized (see the module
    docstring); ``shift_prime_product.__wrapped__`` is the uncached function.
    """
    product = 1
    for ak, (pair_sum, _) in zip(e.a, _singularity_moduli(e)):
        for bl in e.b:
            if ak != bl:
                for p in factorize(ak - bl).primes():
                    if gcd(p, pair_sum) == 1:
                        product *= p
    return product


def certified_shift(e: EschParams, mu: int, sign: int) -> int:
    """A shift guaranteed to produce a non-singular candidate.

    Returns sign * 2**(mu-1) * P**mu with P from ``shift_prime_product``.
    Requires e free with all nine differences a_k - b_l nonzero, and
    mu >= 1; factorization-effort errors propagate.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not is_free(e):
        raise ValueError(f"certified shifts exist only for free parameters, got {e}")
    # a_k == b_l pins one candidate pair sum at 0 for every shift, so the
    # gcd-equals-2 condition degenerates to |other pair sum| == 2 and at most
    # two shifts can ever work; the certified-shift construction is void.
    a1, a2, a3 = e.a
    if a1 in e.b or a2 in e.b or a3 in e.b:
        raise ValueError(
            "certified shifts need all nine differences a_k - b_l nonzero; "
            f"{e} has a vanishing difference (free parameters with a vanishing "
            "difference admit at most two non-singular shifts)"
        )
    return sign * 2 ** (mu - 1) * shift_prime_product(e) ** mu


def _sigma_differences(e: EschParams) -> tuple[int, int]:
    """(sigma_2(a) - sigma_2(b), sigma_3(a) - sigma_3(b))."""
    a, b = e.a, e.b
    return (elementary_symmetric(2, a) - elementary_symmetric(2, b),
            elementary_symmetric(3, a) - elementary_symmetric(3, b))


def sigma3_shift_closed_form(e: EschParams, c: int) -> int:
    """sigma_3 of the 6-tuple (2(a_i+c)+1, -2(b_i+c)-1) without expanding it.

    Equals 8*(sigma_3(a) - sigma_3(b)) - 8*(sigma_1(a) + 2c + 1)
    * (sigma_2(a) - sigma_2(b)); the sigma_1 terms cancel because the
    parameter sums balance.
    """
    d2, d3 = _sigma_differences(e)
    return 8 * d3 - 8 * (sum(e.a) + 2 * c + 1) * d2


def collision_locus(e: EschParams) -> Fraction | None:
    """Where two different shifts can share the same |sigma_3|.

    Two shifts c != d give candidates with equal |H^6| exactly when c + d
    equals the returned rational.  Returns None when sigma_2(a) ==
    sigma_2(b), in which case |sigma_3| is constant and every shift pair
    collides ("everywhere").
    """
    d2, d3 = _sigma_differences(e)
    if d2 == 0:
        return None
    return Fraction(d3, d2) - sum(e.a) - 1


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
        raise ValueError(f"n must be >= 1, got {n}")
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
        raise SingularCandidateError(f"shift {to_decimal(c)} of {e} yields a singular candidate")
    q = candidate_q(e, c).q
    qs = sum(q)
    swapped = EschParams(tuple(x + c for x in e.b), tuple(x + c for x in e.a))
    dual = BazParams((qs, -q[3], -q[4], -q[1], -q[2]))
    if dual != candidate_q(swapped, 0):
        raise InternalError(f"the dual host at shift {to_decimal(c)} of {e} differs from the swapped "
                            "space's shift-0 candidate")
    return swapped, dual
