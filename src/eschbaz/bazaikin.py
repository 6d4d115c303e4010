"""Bazaikin parameter 5-tuples and their predicates.

A Bazaikin biquotient is parameterized by five integers q1..q5.  Oddness is
a predicate input rather than a structural invariant so that singular
candidates can still be represented and reported.  Freeness demands all q_i
odd and gcd(q_i + q_j, q_k + q_l) == 2 for every pair of disjoint index
pairs; positive curvature demands all ten pairwise sums share a strict sign.

Each 5-tuple carries ten totally geodesic Eschenburg parameter sets, one per
2-subset of indices; ``submanifolds`` extracts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .arith import InternalError, elementary_symmetric, tuple_to_decimal
from .eschenburg import EschParams

# The freeness condition only depends on the two unordered index pairs, so the
# 120 permutations collapse to 15 pairs of disjoint 2-subsets of {0..4}.
_DISJOINT_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    (p1, p2)
    for p1 in combinations(range(5), 2)
    for p2 in combinations(range(5), 2)
    if p1 < p2 and not set(p1) & set(p2)
)
if len(_DISJOINT_PAIRS) != 15:
    raise InternalError(f"expected 15 pairs of disjoint index pairs, got {len(_DISJOINT_PAIRS)}")


@dataclass(frozen=True)
class BazParams:
    """An integer 5-tuple q; qsum is the derived total."""

    q: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        q = tuple(int(x) for x in self.q)
        if len(q) != 5:
            raise ValueError(f"expected a 5-tuple, got {tuple_to_decimal(q)}")
        object.__setattr__(self, "q", q)

    @property
    def qsum(self) -> int:
        return sum(self.q)

    def all_odd(self) -> bool:
        return all(x % 2 != 0 for x in self.q)

    def __str__(self) -> str:
        return f"q={tuple_to_decimal(self.q)}"


def is_free_baz(b: BazParams) -> bool:
    """Freeness: all q_i odd and every disjoint pair-sum gcd equals 2."""
    if not b.all_odd():
        return False
    q = b.q
    return all(
        gcd(q[i] + q[j], q[k] + q[l]) == 2 for (i, j), (k, l) in _DISJOINT_PAIRS
    )


def freeness_failures(b: BazParams) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """The disjoint index pairs violating the gcd-equals-2 condition.

    Entries are ((i, j), (k, l), g) with 1-based indices and
    g = gcd(q_i + q_j, q_k + q_l) != 2.  Empty for free parameters; oddness
    violations are not listed here (check ``BazParams.all_odd`` separately).
    """
    q = b.q
    out = []
    for (i, j), (k, l) in _DISJOINT_PAIRS:
        g = gcd(q[i] + q[j], q[k] + q[l])
        if g != 2:
            out.append(((i + 1, j + 1), (k + 1, l + 1), g))
    return out


def is_pc_baz(b: BazParams) -> bool:
    """Positive curvature: all ten pairwise sums > 0, or all < 0."""
    sums = [b.q[i] + b.q[j] for i, j in combinations(range(5), 2)]
    return all(s > 0 for s in sums) or all(s < 0 for s in sums)


def h6_order(b: BazParams) -> int:
    """|H^6| = |sigma_3(q1, ..., q5, -qsum)| / 8, exact for odd tuples."""
    if not b.all_odd():
        raise ValueError(f"h6_order needs all entries odd, got {tuple_to_decimal(b.q)}")
    s3 = elementary_symmetric(3, b.q + (-b.qsum,))
    magnitude, remainder = divmod(abs(s3), 8)
    if remainder:
        raise InternalError(f"sigma_3 of odd tuple {tuple_to_decimal(b.q)} not divisible by 8")
    return magnitude


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
