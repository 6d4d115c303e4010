"""Slow reference implementations that fast paths in the package are tested against.

Also holds ``effectivize`` and ``collision_locus``, which only the tests use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from typing import Iterable, Iterator

from eschbaz import (
    BazParams,
    EschParams,
    SurveyRow,
    WindowReport,
    h4_order,
    is_free,
    kernel_order,
    pc_normal_form,
)
from eschbaz.arith import to_decimal
from eschbaz.embedding import _first_nonsingular, _moduli, pc_shift_window

_PERMS3 = tuple(permutations(range(3)))
_PERMS5 = tuple(permutations(range(5)))


def elementary_symmetric(k: int, xs: Iterable[int]) -> int:
    """sigma_k(xs): the sum over all k-element subsets of xs of their products.

    sigma_0 == 1 (empty product).  Equivalently the coefficient of y**(m-k)
    in prod_j (y + x_j) for m = len(xs).  The package writes each sigma it
    needs out in full; this general form is what they are tested against.
    """
    values = tuple(xs)
    if not 0 <= k <= len(values):
        raise ValueError(f"k={k} out of range for a sequence of length {len(values)}")
    # multiply out (y + x) factor by factor, keeping degrees up to k only
    coeffs = [1] + [0] * k
    top = 0
    for x in values:
        top = min(top + 1, k)
        for i in range(top, 0, -1):
            coeffs[i] += x * coeffs[i - 1]
    return coeffs[k]


class DegenerateActionError(ValueError):
    """The circle action is trivial (all parameters equal)."""


def effectivize(e: EschParams) -> EschParams:
    """Divide out the ineffective kernel; the quotient space is unchanged.

    Subtracts t = a1 mod g from all six entries and divides by
    g = kernel_order(e), giving parameters with kernel order 1.  The
    package only measures the kernel; the tests use this to check that a
    kernel of order 2 or more is what blocks freeness.
    """
    g = kernel_order(e)
    if g == 0:
        raise DegenerateActionError(f"all parameters equal ({e}); the action is trivial")
    if g == 1:
        return e
    t = e.a[0] % g
    return EschParams(
        tuple((x - t) // g for x in e.a),
        tuple((x - t) // g for x in e.b),
    )


def collision_locus(e: EschParams) -> Fraction | None:
    """Where two different shifts can share the same |sigma_3|.

    Two shifts c != d give candidates with equal |H^6| exactly when c + d
    equals the returned rational: sigma_3 of the shift-c six-tuple is
    8*(sigma_3(a) - sigma_3(b)) - 8*(sigma_1(a) + 2c + 1)*(sigma_2(a) - sigma_2(b)),
    affine in c.  Returns None when sigma_2(a) == sigma_2(b), in which case
    |sigma_3| is constant and every shift pair collides ("everywhere").
    """
    (a1, a2, a3), (b1, b2, b3) = e.a, e.b
    d2 = a1 * a2 + a1 * a3 + a2 * a3 - b1 * b2 - b1 * b3 - b2 * b3
    if d2 == 0:
        return None
    return Fraction(a1 * a2 * a3 - b1 * b2 * b3, d2) - a1 - a2 - a3 - 1


def is_free_oracle(e: EschParams) -> bool:
    """Freeness decided by direct divisor enumeration, no gcd calls.

    For each permutation, looks for an integer m >= 2 dividing both matched
    differences, enumerating m up to min(|d1|, |d2|) and treating zero
    differences (divisible by everything) exhaustively.
    """
    a, b = e.a, e.b
    for s in _PERMS3:
        d1 = a[0] - b[s[0]]
        d2 = a[1] - b[s[1]]
        if d1 == 0 and d2 == 0:
            return False
        if d1 == 0 or d2 == 0:
            lone = d1 or d2
            if abs(lone) >= 2:
                return False
            continue
        for m in range(2, min(abs(d1), abs(d2)) + 1):
            if d1 % m == 0 and d2 % m == 0:
                return False
    return True


def is_free_six_gcds(e: EschParams) -> bool:
    """Freeness as six pairwise-coprimality checks, one per pair i != j.

    gcd(x_i, y_j) == 1 with x_i = a1 - b_i and y_i = a2 - b_i, the checks
    that ``is_free`` pairs into three gcds through the balanced sums.
    """
    a1, a2, _ = e.a
    b1, b2, b3 = e.b
    x1, x2, x3 = a1 - b1, a1 - b2, a1 - b3
    y1, y2, y3 = a2 - b1, a2 - b2, a2 - b3
    return (gcd(x1, y2) == 1 and gcd(x1, y3) == 1 and gcd(x2, y1) == 1
            and gcd(x2, y3) == 1 and gcd(x3, y1) == 1 and gcd(x3, y2) == 1)


def is_pc_metric_oracle(e: EschParams) -> bool:
    """Fixed-metric positive curvature from its definition.

    Every b_i lies outside the closed interval [min(a), max(a)], and b2 and
    b3 lie on one side of it; ``is_pc_metric`` tests the second clause alone.
    """
    lo, _, hi = sorted(e.a)
    if any(lo <= bi <= hi for bi in e.b):
        return False
    _, b2, b3 = e.b
    return (b2 < lo) == (b3 < lo)


def is_free_baz_oracle(b: BazParams) -> bool:
    """Freeness evaluated literally over all 120 permutations of the indices."""
    if not b.all_odd():
        return False
    q = b.q
    return all(gcd(q[s[0]] + q[s[1]], q[s[2]] + q[s[3]]) == 2 for s in _PERMS5)


def freeness_failures_oracle(b: BazParams) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """``freeness_failures`` with one gcd per pair of disjoint index pairs.

    The pairs come from ``itertools.combinations`` on the 1-based indices, in
    lexicographic order; each ((i, j), (k, l), g) with
    g = gcd(q_i + q_j, q_k + q_l) != 2 is listed.
    """
    q = dict(enumerate(b.q, 1))
    out = []
    for (i, j), (k, l) in combinations(combinations(range(1, 6), 2), 2):
        if {i, j}.isdisjoint({k, l}):
            g = gcd(q[i] + q[j], q[k] + q[l])
            if g != 2:
                out.append(((i, j), (k, l), g))
    return out


def is_pc_baz_oracle(b: BazParams) -> bool:
    """Positive curvature over all ten pairwise sums: all > 0, or all < 0."""
    sums = [b.q[i] + b.q[j] for i, j in combinations(range(5), 2)]
    return all(s > 0 for s in sums) or all(s < 0 for s in sums)


def h6_order_oracle(b: BazParams) -> int:
    """|H^6| = |sigma_3(q1, ..., q5, -qsum)| / 8, with sigma_3 expanded in full.

    Raises ValueError on an even entry and ArithmeticError if sigma_3 is not
    divisible by 8.
    """
    if not b.all_odd():
        raise ValueError(f"h6_order needs all entries odd, got {b}")
    magnitude, remainder = divmod(abs(elementary_symmetric(3, b.q + (-b.qsum,))), 8)
    if remainder:
        raise ArithmeticError(f"sigma_3 of {b} is not divisible by 8")
    return magnitude


def nonsingular_shift_oracle(e: EschParams, c: int) -> bool:
    """``nonsingular_shift`` as nine separate gcds, one per difference a_k - b_l.

    Freeness plus gcd(a_i + a_j + 1 + 2c, a_k - b_l) == 1 for every k and l,
    {i, j} the complement of k.  A zero difference makes the gcd equal
    |a_i + a_j + 1 + 2c|, which is evaluated literally.
    """
    if not is_free(e):
        return False
    a, b = e.a, e.b
    for k in range(3):
        i, j = (x for x in range(3) if x != k)
        pair_sum = a[i] + a[j] + 1 + 2 * c
        if any(gcd(pair_sum, a[k] - bl) != 1 for bl in b):
            return False
    return True


def first_nonsingular_shift(f: EschParams) -> int | None:
    """The smallest shift in the curvature window with a non-singular candidate.

    f must be free and in positive-curvature normal form; freeness is not
    rechecked.  The per-form reference for the box scan, which decides the
    same walk on plain ints without building an ``EschParams``: one window,
    one set of moduli and one three-gcd walk per form.  None means every
    shift in the window is singular.
    """
    return _first_nonsingular(pc_shift_window(f), *_moduli(*f.a, *f.b))


def shift_prime_product_oracle(e: EschParams) -> int:
    """``shift_prime_product`` from its definition, with primes found by trial division.

    Every prime p dividing a nonzero a_k - b_l and coprime to a_i + a_j + 1
    ({i, j} the complement of k) is one factor per (k, l).  Only for small
    entries: it tries every p up to |a_k - b_l|.
    """
    product = 1
    for k in range(3):
        pair_sum = sum(e.a) - e.a[k] + 1
        for bl in e.b:
            d = abs(e.a[k] - bl)
            for p in range(2, d + 1):
                if d % p == 0 and all(p % r for r in range(2, p)) and gcd(p, pair_sum) == 1:
                    product *= p
    return product


def sigma3_shift_closed_form(e: EschParams, c: int) -> int:
    """sigma_3 of the 6-tuple (2(a_i+c)+1, -2(b_i+c)-1) without expanding it.

    Equals 8*(sigma_3(a) - sigma_3(b)) - 8*(sigma_1(a) + 2c + 1)
    * (sigma_2(a) - sigma_2(b)); the sigma_1 terms cancel because the
    parameter sums balance.  The affine form ``collision_locus`` solves.
    """
    a, b = e.a, e.b
    d2 = elementary_symmetric(2, a) - elementary_symmetric(2, b)
    d3 = elementary_symmetric(3, a) - elementary_symmetric(3, b)
    return 8 * d3 - 8 * (sum(a) + 2 * c + 1) * d2


def row_from_report(report: WindowReport) -> SurveyRow:
    """The survey row of a window scan, read off its full certificates.

    The path the survey jobs took before they decided each space with the
    three-gcd kernel; every job's rows are checked against it.  Every row
    is a counterexample, so a non-singular certificate anywhere in the
    window raises ``AssertionError`` (raised, not asserted, so that it
    holds under ``python -O``).
    """
    good = [cert.shift for cert in report.certificates if cert.baz_free]
    if good:
        raise AssertionError(f"{report.esch} is no counterexample: non-singular at c in {good}")
    return SurveyRow(esch=report.esch, window=report.window, h4=h4_order(report.esch))


def decimal_by_digits(n: int) -> str:
    """The decimal string of n, peeling off one digit at a time.

    Quadratic, but free of the interpreter's int-to-str digit limit, so it
    checks the chunked ``to_decimal`` on values past that limit.
    """
    m, digits = abs(n), []
    while True:
        m, d = divmod(m, 10)
        digits.append("0123456789"[d])
        if not m:
            break
    return "-" * (n < 0) + "".join(reversed(digits))


def to_jsonable_oracle(x):
    """A copy of a report tree that ``json.dumps`` can encode exactly.

    The conversion the CLI ran before ``json.dumps(..., indent=2)`` until
    its one-walk JSON writer replaced both: ints beyond +-(2**53 - 1) become
    decimal strings.
    """
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x if -(2**53 - 1) <= x <= 2**53 - 1 else to_decimal(x)
    if isinstance(x, dict):
        return {k: to_jsonable_oracle(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable_oracle(v) for v in x]
    raise TypeError(f"cannot serialize {type(x)!r}")


def enumerate_normal_forms(max_abs: int) -> set[tuple]:
    """Normal-form keys (a, b) of the free, positively curved spaces in the box.

    The enumeration ``scan_box`` used before it wrote keys down directly:
    walk both inequality chains for every 0 <= a2 <= a1 <= max_abs, test
    freeness with the six gcds of ``is_free_six_gcds`` (not ``is_free``,
    whose three-gcd identity this checks) and normalize each hit with
    ``pc_normal_form``.
    """
    found: set[tuple] = set()
    for a1 in range(max_abs + 1):
        for a2 in range(a1 + 1):
            s = a1 + a2
            candidates = []
            # chain 1: b3 <= b2 <= -1, b1 = s - b2 - b3 <= max_abs
            for b3 in range(-max_abs, 0):
                for b2 in range(max(b3, s - max_abs - b3), 0):
                    candidates.append((s - b2 - b3, b2, b3))
            # chain 2: b2 >= b3 >= a1 + 1, b2 <= max_abs, b1 = s - b2 - b3 >= -max_abs
            for b3 in range(a1 + 1, max_abs + 1):
                for b2 in range(b3, min(max_abs, s + max_abs - b3) + 1):
                    candidates.append((s - b2 - b3, b2, b3))
            for b in candidates:
                e = EschParams((a1, a2, 0), b)
                if is_free_six_gcds(e):
                    f = pc_normal_form(e)
                    found.add((f.a, f.b))
    return found


def normal_forms(tails: list[tuple[int, int]], max_abs: int) -> Iterator[tuple]:
    """Yield the free, positively curved normal forms (a, b) of a set of (b3, b2) tails.

    The enumeration of ``survey._scan_shard``, in its order, as a generator:
    the normal forms a=(a1, a2, 0), b=(b1, b2, b3) with
    b1 = a1 + a2 - b2 - b3 over the box b3 >= a1 - max_abs,
    b1 <= a1 + max_abs, a2 outside and a1 inside, free by ``is_free`` on
    each form (not the kernel's split of its three gcds).  Checked against
    ``enumerate_normal_forms`` on small boxes; unlike it, it reaches the
    tail of a stored counterexample in one shard.
    """
    for b3, b2 in tails:
        for a2 in range(max_abs + b2 + b3 + 1):
            for a1 in range(a2, max_abs + b3 + 1):
                e = EschParams((a1, a2, 0), (a1 + a2 - b2 - b3, b2, b3))
                if is_free(e):
                    yield e.a, e.b
