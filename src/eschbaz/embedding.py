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
evaluates the straight-line ``is_pc_metric`` and one ``bazaikin.host_facts``
pass over the candidate, which gives its failing gcds (free iff none), its
curvature and its |H^6|.  ``certified_shift`` is the one construction of
the non-singular shifts +-2**(mu-1) * P**mu;
``homotopy_distinct_embeddings`` walks it for hosts with distinct |H^6|.
``make_certificate``'s shift, ``certified_shift``'s mu and sign and
``window_scan``'s cap go through ``operator.index``, as the entries of
``EschParams`` and ``BazParams`` do: a float raises TypeError and a bool
becomes an int.

``nonsingular_shift`` and ``shift_prime_product`` read one record of the
space being walked, ``_walked``: the tuple (space, its six ``_moduli``
values or None when it is not free, its P or None until asked).  Every
caller asks about one space in consecutive calls, so the certified shifts
of one space, their ``nonsingular_shift`` checks and its distinct hosts
share one freeness test, one set of moduli and one P.  The record is found
by identity (``is``), so no call hashes the space (an equal space that is
another object is worked out again, to the same facts), and the record
keeps its space alive, so no other object can take its identity.  Each
call reads the record once and replaces it by one assignment of a new
tuple, so a thread never sees one space's facts under another's.  Errors
are never stored: an invalid space raises on every call.  Factors are
reused across spaces by ``arith.factorize``'s own memo.

The window bounds, the moduli and the three-gcd shift test each live in
one private helper on plain ints (``_window``, ``_moduli``,
``_nonsingular``); ``pc_shift_window`` is ``_window`` on a form that it
checks is in the chain, ``_first_nonsingular`` walks ``_nonsingular`` over
a window, and ``nonsingular_shift`` is ``_nonsingular`` on the recorded
moduli.  The box scan (``survey._scan_shard``) reads ``_window`` only once
per tail (b3, b2), whose rows share the window's end and start it at
(1 - a2)//2, and decides each row of a1 by residue classes, calling
neither ``_moduli`` nor the shift test: those serve the per-space path
(``nonsingular_shift``, ``shift_prime_product`` and
``survey._counterexample_row``, which re-walks every row the scan prints)
and the tests' per-form oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd
from operator import index

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
    a1, a2, a3 = e.a
    _, b2, b3 = e.b
    t = 2 * c + 1
    return BazParams((2 * a1 + t, 2 * a2 + t, 2 * a3 + t, -(2 * b2 + t), -(2 * b3 + t)))


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


# The space being walked: (space, its _moduli values or None when it is not
# free, its P or None until asked); see the module docstring.
_walked: tuple[EschParams | None, tuple[int, ...] | None, int | None] = (None, None, None)


def _walk(e: EschParams) -> tuple[EschParams, tuple[int, ...] | None, None]:
    """Record e as the space being walked, with its moduli when it is free, and return the record."""
    global _walked
    _walked = record = (e, _moduli(*e.a, *e.b) if is_free(e) else None, None)
    return record


def nonsingular_shift(e: EschParams, c: int) -> bool:
    """True iff the shift-c candidate is a genuine (non-singular) Bazaikin space.

    Equivalent to e being free plus the nine conditions
    gcd(a_i + a_j + 1 + 2c, a_k - b_l) == 1, where {i, j} is the complement
    of k; checked as three gcds by ``_nonsingular`` on the moduli of the
    recorded space (see the module docstring).
    """
    space, moduli, _ = _walked
    if space is not e:
        _, moduli, _ = _walk(e)
    return moduli is not None and _nonsingular(c, *moduli)


def _nonsingular(c: int, s1: int, d1: int, s2: int, d2: int, s3: int, d3: int) -> bool:
    """gcd(s_k + 2c, D_k) == 1 for k = 1, 2, 3 (the ``_moduli`` values): shift c is non-singular."""
    t = 2 * c
    return gcd(s1 + t, d1) == 1 and gcd(s2 + t, d2) == 1 and gcd(s3 + t, d3) == 1


def _first_nonsingular(window: Iterable[int], s1: int, d1: int, s2: int, d2: int, s3: int, d3: int) -> int | None:
    """The first c in window that ``_nonsingular`` accepts on the ``_moduli`` values."""
    for c in window:
        if _nonsingular(c, s1, d1, s2, d2, s3, d3):
            return c
    return None


def make_certificate(e: EschParams, c: int) -> EmbeddingCertificate:
    """Every certificate field for the shift-c candidate of e, from one ``bazaikin.host_facts`` pass.

    c goes through ``operator.index``: a float raises TypeError and a bool is
    recorded as an int.  Free iff no gcd fails; h6 is 0 when singular.
    """
    c = index(c)
    q = candidate_q(e, c)
    offending, pc, h6 = bazaikin.host_facts(q)
    # in field order: positional arguments cost a quarter less than keywords
    return EmbeddingCertificate(e, c, q, not offending, pc, is_pc_metric(e), 0 if offending else h6, tuple(offending))


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
    certificate is built; ``max_shifts`` goes through ``operator.index``
    first, so a float raises TypeError.
    """
    if max_shifts is not None:
        max_shifts = index(max_shifts)
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


def shift_prime_product(e: EschParams) -> int:
    """Product P underlying the certified shifts.

    Raises ValueError unless e is free with all nine differences a_k - b_l
    nonzero.  For each of the nine (k, l) pairs, take the distinct prime
    divisors of a_k - b_l that are coprime to s_k = a_i + a_j + 1 ({i, j}
    the complement of k); each such prime contributes one factor of P per
    pair in which it qualifies.  ``_moduli`` gives s_k and D_k, and a_k ==
    b_l for some l iff D_k == 0.  An empty product is 1.  P is kept in the
    record of the space being walked (see the module docstring), and
    ``_prime_product`` computes it uncached.
    """
    global _walked
    space, moduli, product = _walked
    if space is not e:
        _, moduli, product = _walk(e)
    if product is not None:
        return product
    if moduli is None:
        raise ValueError(f"certified shifts exist only for free parameters, got {e}")
    # a_k == b_l pins one candidate pair sum at 0 for every shift, so the
    # gcd-equals-2 condition degenerates to |other pair sum| == 2 and at most
    # two shifts can ever work; the certified-shift construction is void.
    s1, d1, s2, d2, s3, d3 = moduli
    if 0 in (d1, d2, d3):
        raise ValueError(
            "certified shifts need all nine differences a_k - b_l nonzero; "
            f"{e} has a vanishing difference (free parameters with a vanishing "
            "difference admit at most two non-singular shifts)"
        )
    product = _prime_product(e, (s1, s2, s3))
    _walked = (e, moduli, product)
    return product


def _prime_product(e: EschParams, pair_sums: tuple[int, int, int]) -> int:
    """P of e from its pair sums s_k, uncached and unchecked (``shift_prime_product`` checks e)."""
    product = 1
    for ak, pair_sum in zip(e.a, pair_sums):
        for bl in e.b:
            for p, _ in factorize(ak - bl):
                if pair_sum % p:
                    product *= p
    return product


def certified_shift(e: EschParams, mu: int, sign: int) -> int:
    """A shift guaranteed to produce a non-singular candidate.

    Returns sign * 2**(mu-1) * P**mu with P from ``shift_prime_product``.
    Requires mu >= 1, sign in (1, -1), and e free with all nine differences
    a_k - b_l nonzero; e is checked and P computed once per space walked
    (see ``shift_prime_product``); ``FactorizationIncomplete`` propagates.
    mu and sign go through ``operator.index``: a float raises TypeError.
    """
    mu, sign = index(mu), index(sign)
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
