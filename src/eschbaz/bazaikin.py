"""Bazaikin parameter 5-tuples and their predicates.

A Bazaikin biquotient is parameterized by five integers q1..q5.  Oddness is
a predicate input rather than a structural invariant so that singular
candidates can still be represented and reported.  Freeness demands all q_i
odd and gcd(q_i + q_j, q_k + q_l) == 2 for every pair of disjoint index
pairs; the 15 gcds force the oddness.
One to four even q_i give an odd pair sum (even plus odd), so odd gcds.
With five, the halves split by parity 5+0, 4+1 or 3+2, so two disjoint
pairs each lie inside a class: both pair sums, hence their gcd, are 0 mod 4.
Positive curvature demands all ten pairwise sums share a strict sign.

|H^6| is |sigma_3| / 8 of the six-tuple (q1, ..., q6) = (q1, ..., q5,
-qsum).  That tuple sums to zero, so sigma_3 = p_3 / 3 (Newton's
identity).  Split it into the triples (q1, q2, q4) and (q3, q5, q6), whose
sums are negatives of each other; with (x+y+z)^3 = x^3 + y^3 + z^3 +
3(x+y)(y+z)(z+x) for each, the cubes of the triple sums cancel and

    sigma_3 = -[(q1+q2)(q1+q4)(q2+q4) + (q3+q5)(q3+q6)(q5+q6)].

For a shift candidate the pair sums q1+q4, q2+q4, q3+q5 and q3+q6 do not
depend on the shift, so each product has one factor that grows with it.

``host_facts`` reads all three facts (the failing gcds, the curvature
signs and |H^6|) off the ten pair sums, formed once; ``freeness_failures``,
``is_pc_baz`` and ``h6_order`` are views of it, so each fact is written
once and a caller that needs all three (an embedding certificate, the
CLI's ``verify-baz``) makes one pass.

Each 5-tuple carries ten totally geodesic Eschenburg parameter sets, one per
2-subset of indices; ``submanifolds`` extracts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import index

from .arith import InternalError, tuple_to_decimal
from .eschenburg import EschParams

# The freeness condition only depends on the two unordered index pairs, so the
# 120 permutations collapse to 15 pairs of disjoint 2-subsets of {1..5}.
_DISJOINT_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    (p1, p2)
    for p1 in combinations(range(1, 6), 2)
    for p2 in combinations(range(1, 6), 2)
    if p1 < p2 and not set(p1) & set(p2)
)
if len(_DISJOINT_PAIRS) != 15:
    raise InternalError(f"expected 15 pairs of disjoint index pairs, got {len(_DISJOINT_PAIRS)}")


@dataclass(frozen=True, slots=True, init=False)
class BazParams:
    """An integer 5-tuple q; qsum is the derived total.

    Entries go through ``operator.index``: floats and strings raise TypeError.
    The constructor validates before it writes q, once.
    """

    q: tuple[int, int, int, int, int]

    def __init__(self, q: tuple[int, int, int, int, int]) -> None:
        q = tuple(map(index, q))
        if len(q) != 5:
            raise ValueError(f"expected a 5-tuple, got {tuple_to_decimal(q)}")
        object.__setattr__(self, "q", q)

    @property
    def qsum(self) -> int:
        return sum(self.q)

    def all_odd(self) -> bool:
        """True iff every entry is odd: its lowest bit is 1, negative entries included."""
        q0, q1, q2, q3, q4 = self.q
        return bool(q0 & q1 & q2 & q3 & q4 & 1)

    def __str__(self) -> str:
        return f"q={tuple_to_decimal(self.q)}"


def host_facts(b: BazParams) -> tuple[list[tuple[tuple[int, int], tuple[int, int], int]], bool, int | None]:
    """(``freeness_failures``, ``is_pc_baz``, ``h6_order`` or None when an entry is even) of b.

    One pass over the ten pair sums s_ij = q_i + q_j, formed once.
    Freeness: the 15 gcds, labelled ((i, j), (k, l), g) with 1-based
    indices in ``_DISJOINT_PAIRS`` order only for g != 2, so the list is
    empty iff b is free.  Curvature: the ten sums share a strict sign; with
    r the sorted entries, the least is r1 + r2 and the greatest r4 + r5.
    |H^6|: sigma_3 = -[s12 s14 s24 + s35 (s12 + s45)(s12 + s34)], the
    module docstring's form with q3 + q6 = -(s12 + s45) and
    q5 + q6 = -(s12 + s34); each pair sum of two odd entries is even, so
    each product is a multiple of 8.
    """
    q1, q2, q3, q4, q5 = b.q
    s12, s13, s14, s15 = q1 + q2, q1 + q3, q1 + q4, q1 + q5
    s23, s24, s25 = q2 + q3, q2 + q4, q2 + q5
    s34, s35, s45 = q3 + q4, q3 + q5, q4 + q5
    gcds = (
        gcd(s12, s34), gcd(s12, s35), gcd(s12, s45),
        gcd(s13, s24), gcd(s13, s25), gcd(s13, s45),
        gcd(s14, s23), gcd(s14, s25), gcd(s14, s35),
        gcd(s15, s23), gcd(s15, s24), gcd(s15, s34),
        gcd(s23, s45), gcd(s24, s35), gcd(s25, s34),
    )
    failures = [] if gcds == (2,) * 15 else [(p1, p2, g) for (p1, p2), g in zip(_DISJOINT_PAIRS, gcds) if g != 2]
    r1, r2, _, r4, r5 = sorted(b.q)
    pc = r1 + r2 > 0 or r4 + r5 < 0
    # no failing gcd forces every entry odd (see the module docstring)
    if failures and not b.all_odd():
        return failures, pc, None
    sigma3 = -(s12 * s14 * s24 + s35 * (s12 + s45) * (s12 + s34))
    h6, remainder = divmod(abs(sigma3), 8)
    if remainder:
        raise InternalError(f"sigma_3 of odd tuple {tuple_to_decimal(b.q)} not divisible by 8")
    return failures, pc, h6


def is_free_baz(b: BazParams) -> bool:
    """Freeness: no ``freeness_failures``, which also forces every q_i odd (see the module docstring)."""
    return not freeness_failures(b)


def freeness_failures(b: BazParams) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """The ((i, j), (k, l), g) with g = gcd(q_i + q_j, q_k + q_l) != 2, 1-based, in ``_DISJOINT_PAIRS`` order.

    Empty iff b is free; read off ``host_facts``.
    """
    return host_facts(b)[0]


def is_pc_baz(b: BazParams) -> bool:
    """Positive curvature: all ten pairwise sums > 0, or all < 0 (``host_facts``)."""
    return host_facts(b)[1]


def h6_order(b: BazParams) -> int:
    """|H^6| = |sigma_3(q1, ..., q5, -qsum)| / 8, exact for odd tuples (``host_facts``)."""
    h6 = host_facts(b)[2]
    if h6 is None:
        raise ValueError(f"h6_order needs all entries odd, got {tuple_to_decimal(b.q)}")
    return h6


def submanifolds(b: BazParams) -> list[tuple[tuple[int, int], EschParams]]:
    """The ten embedded Eschenburg parameter sets, one per index 2-subset.

    For the (1-based) subset {l, m} with complement {i, j, k}:
        a = ((q_i - 1)/2, (q_j - 1)/2, (q_k - 1)/2)
        b = ((qsum - 1)/2, -(q_l + 1)/2, -(q_m + 1)/2)
    Results are raw (not canonicalized) so the correspondence with the
    selecting subset is preserved; deduplicate via ``canonicalize`` if the
    distinct count is wanted.
    """
    if not b.all_odd():
        raise ValueError(f"submanifolds needs all entries odd, got {tuple_to_decimal(b.q)}")
    q = b.q
    half_sum = (b.qsum - 1) // 2
    out = []
    for l, m in combinations(range(5), 2):
        comp = [i for i in range(5) if i != l and i != m]
        a = tuple((q[i] - 1) // 2 for i in comp)
        bb = (half_sum, -(q[l] + 1) // 2, -(q[m] + 1) // 2)
        out.append(((l + 1, m + 1), EschParams(a, bb)))
    return out
