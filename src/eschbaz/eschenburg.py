"""Eschenburg parameter triples and their predicates.

An Eschenburg biquotient is parameterized by two integer triples a, b with
equal sums.  Everything below is a pure function of those six integers:
freeness of the circle action, order of its ineffective kernel, positive
curvature (both for some metric and for the fixed metric/labeling), the
isometry-canonical form, and the order of the fourth cohomology group.

Moves that are isometries (permuting a, permuting b2/b3, adding a common
shift to all six entries) are applied by ``canonicalize``; the ineffective
kernel is measured by ``kernel_order`` and never divided out.  Moves that
are mere diffeomorphisms (cyclic relabelings of all of b, swapping a and b)
are never applied implicitly; the a/b swap appears only through the
dual-embedding operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

from .arith import InternalError, to_decimal, tuple_to_decimal


@dataclass(frozen=True, slots=True, init=False)
class EschParams:
    """Integer triples (a, b) with sum(a) == sum(b).

    Entries go through ``operator.index``: floats and strings raise TypeError.
    The constructor validates before it writes a and b, once each.
    """

    a: tuple[int, int, int]
    b: tuple[int, int, int]

    def __init__(self, a: tuple[int, int, int], b: tuple[int, int, int]) -> None:
        a = tuple(map(index, a))
        b = tuple(map(index, b))
        if len(a) != 3 or len(b) != 3:
            raise ValueError(
                f"expected two triples, got a={tuple_to_decimal(a)}, b={tuple_to_decimal(b)}"
            )
        if sum(a) != sum(b):
            raise ValueError(
                f"parameter sums differ: sum(a) = {to_decimal(sum(a))}, sum(b) = {to_decimal(sum(b))}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"a={tuple_to_decimal(self.a)} b={tuple_to_decimal(self.b)}"


def shift(e: EschParams, c: int) -> EschParams:
    """Add a common integer to all six entries (an isometry of the quotient)."""
    return EschParams(tuple(x + c for x in e.a), tuple(x + c for x in e.b))


def is_free(e: EschParams) -> bool:
    """Freeness of the circle action: three gcds.

    The action is free iff gcd(x_i, y_j) == 1 for all i != j, where
    x_i = a1 - b_i and y_i = a2 - b_i: one check gcd(a1 - b_s(1),
    a2 - b_s(2)) per permutation s of b, the third difference being
    redundant because the sums balance.  Since gcd(x, y) == gcd(x, x + y),
    and with v = b3 - a3 the balanced sums give x3 + y1 == x1 + y3 == b2 - a3
    and x1 + y2 == x2 + y1 == v, the six checks pair up into three
    (gcd(n, k*m) == 1 iff gcd(n, k) == gcd(n, m) == 1):

        gcd(b2 - a3, x3*y3) == gcd(a2 - b2, x3*v) == gcd(a1 - b2, y3*v) == 1.
    """
    a1, a2, a3 = e.a
    _, b2, b3 = e.b
    x3, y3, v = a1 - b3, a2 - b3, b3 - a3
    return gcd(b2 - a3, x3 * y3) == 1 and gcd(a2 - b2, x3 * v) == 1 and gcd(a1 - b2, y3 * v) == 1


def kernel_order(e: EschParams) -> int:
    """Order of the ineffective kernel: gcd of all nine differences a_i - b_j.

    Zero means every difference vanishes (a totally degenerate action).
    """
    g = 0
    for ai in e.a:
        for bj in e.b:
            g = gcd(g, ai - bj)
    return g


def canonicalize(e: EschParams) -> EschParams:
    """Isometry-canonical representative.

    Sorts a descending, sorts (b2, b3) descending with b1 untouched, then
    shifts all six entries so min(a) == 0.  The multiset of differences
    a_i - b_j is unchanged, so every predicate in this module is preserved.
    """
    a1, a2, a3 = sorted(e.a, reverse=True)
    b1, b2, b3 = e.b
    if b2 < b3:
        b2, b3 = b3, b2
    return EschParams((a1 - a3, a2 - a3, 0), (b1 - a3, b2 - a3, b3 - a3))


def admits_positive_curvature(e: EschParams) -> bool:
    """True iff every b_i lies strictly outside [min(a), max(a)]."""
    lo, hi = min(e.a), max(e.a)
    return all(bi < lo or bi > hi for bi in e.b)


def is_pc_metric(e: EschParams) -> bool:
    """Positive curvature for the fixed metric and labeling.

    Demands, on top of ``admits_positive_curvature``, that b2 and b3 lie on
    the same side of [min(a), max(a)].  That is the whole test: b1 then lies
    outside the interval too, since b2, b3 < min(a) gives
    b1 = sum(a) - b2 - b3 > sum(a) - 2 min(a) >= max(a), and b2, b3 > max(a)
    gives b1 < min(a) the same way.  Cyclic relabelings of b would change
    the metric and are deliberately not tried.
    """
    lo, hi = min(e.a), max(e.a)
    _, b2, b3 = e.b
    return (b2 < lo and b3 < lo) or (b2 > hi and b3 > hi)


def pc_normal_form(e: EschParams) -> EschParams:
    """Representative with b3 <= b2 < a3 <= a2 <= a1 < b1 and min(a) == 0.

    Canonicalizes, and if b2/b3 ended up above the a-interval (the mirrored
    inequality chain), negates all six entries -- the conjugate circle
    parameterization, an isometric model -- and canonicalizes again.
    """
    if not is_pc_metric(e):
        raise ValueError(f"{e} fails the fixed-metric positive-curvature test")
    f = canonicalize(e)
    if f.b[1] > max(f.a):
        f = canonicalize(EschParams(tuple(-x for x in f.a), tuple(-x for x in f.b)))
    if not _in_chain(*f.a, *f.b):
        raise InternalError(f"{f}, the normal form of {e}, breaks the normal-form chain")
    return f


def _in_chain(a1: int, a2: int, a3: int, b1: int, b2: int, b3: int) -> bool:
    """The normal-form chain b3 <= b2 < a3 <= a2 <= a1 < b1 on six ints."""
    return b3 <= b2 < a3 <= a2 <= a1 < b1


def h4_order(e: EschParams) -> int:
    """|H^4| = |sigma_2(a) - sigma_2(b)|; 0 only for degenerate inputs."""
    a1, a2, a3 = e.a
    b1, b2, b3 = e.b
    return abs(a1 * a2 + a1 * a3 + a2 * a3 - b1 * b2 - b1 * b3 - b2 * b3)


def family_cohomogeneity_one(p: int) -> EschParams:
    """The positively curved cohomogeneity-one member a=(p,1,1), b=(p+2,0,0); p goes through ``operator.index``."""
    p = index(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {to_decimal(p)}")
    return EschParams((p, 1, 1), (p + 2, 0, 0))


# The two infinite cohomogeneity-two families: variant -> (a1, b1) at k = 0.
_FAMILIES = {"A": (39, 55), "B": (12909, 12925)}


def family_cohomogeneity_two(variant: str, k: int) -> EschParams:
    """Member k of variant ``variant`` of the two infinite cohomogeneity-two families.

    With (a1, b1) the variant's entry in ``_FAMILIES``, the member is
    a = (15015k + a1, 0, 0), b = (15015k + b1, -3, -13).
    15015 = 3*5*7*11*13, which is what keeps every shift in the curvature
    window singular for every k.  k goes through ``operator.index``.
    """
    k = index(k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {to_decimal(k)}")
    if variant not in _FAMILIES:
        raise ValueError(f"variant must be {' or '.join(map(repr, _FAMILIES))}, got {variant!r}")
    a1, b1 = _FAMILIES[variant]
    n = 15015 * k
    return EschParams((n + a1, 0, 0), (n + b1, -3, -13))
