"""Slow reference implementations that fast paths in the package are tested against."""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd

from eschbaz import BazParams, EschParams, SurveyRow, WindowReport, h4_order, is_free, pc_normal_form
from eschbaz.arith import elementary_symmetric, to_decimal

_PERMS3 = tuple(permutations(range(3)))
_PERMS5 = tuple(permutations(range(5)))


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


def is_free_baz_oracle(b: BazParams) -> bool:
    """Freeness evaluated literally over all 120 permutations of the indices."""
    if not b.all_odd():
        return False
    q = b.q
    return all(gcd(q[s[0]] + q[s[1]], q[s[2]] + q[s[3]]) == 2 for s in _PERMS5)


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


def row_from_report(report: WindowReport) -> SurveyRow:
    """The survey row of a window scan, read off its full certificates.

    The path the survey jobs took before they decided each space with the
    three-gcd kernel; every job's rows are checked against it.
    """
    verdicts = tuple(cert.baz_free for cert in report.certificates)
    return SurveyRow(
        esch=report.esch,
        window=report.window,
        verdicts=verdicts,
        is_counterexample=len(report.window) > 0 and not any(verdicts),
        h4=h4_order(report.esch),
    )


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
    freeness with ``is_free`` and normalize each hit with ``pc_normal_form``.
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
                if is_free(e):
                    f = pc_normal_form(e)
                    found.add((f.a, f.b))
    return found
