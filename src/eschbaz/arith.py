"""Exact integer primitives shared by the rest of the package.

Everything is arbitrary precision on purpose: the certified shift values grow
like 2**(mu-1) * P**mu for a product P of primes drawn from nine small
differences, which leaves any fixed-width integer type behind almost
immediately.  Plain Python ints are the point, not a convenience.

``factorize`` splits |n| by one loop: a piece that Miller-Rabin accepts is a
prime, and any other piece is split by its first small prime base or else by
Brent's rho.  Its effort is fixed by module constants rather than by its
callers: rho is seeded from each cofactor alone and stopped after
``RHO_STEP_BUDGET`` steps per cofactor, and inputs past ``MAX_DIGITS``
digits are refused.  Prime factorization is unique, so no result depends on
that effort, only whether one is found.
``factorize`` returns the increasing (prime, exponent) pairs of |n| and is
memoized by ``functools.lru_cache`` with a fixed ``FACTORIZE_CACHE_SIZE``
(4096) entries, keyed on the input.  Every check runs on each miss, the
result is a tuple, so sharing a cached result is safe, and errors are never
cached.

``to_decimal`` and ``from_decimal`` convert ints to and from decimal text
``DECIMAL_CHUNK_DIGITS`` (600) digits at a time, below the interpreter's
int/str digit limit (4300 by default, 640 at the lowest), so values of any
size reach and leave the command line exactly; ``tuple_to_decimal`` writes a
parameter tuple the same way, for reports and error messages alike.  Range
and precondition messages across the package write their offending value
with ``to_decimal`` too, so a value past the limit is reported for what is
wrong with it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from math import gcd, prod

RHO_STEP_BUDGET = 10**6
MAX_DIGITS = 64
_DIGIT_BOUND = 10**MAX_DIGITS  # the smallest integer with more than MAX_DIGITS digits
FACTORIZE_CACHE_SIZE = 4096
DECIMAL_CHUNK_DIGITS = 600
_DECIMAL_CHUNK = 10**DECIMAL_CHUNK_DIGITS

# Miller-Rabin with the twelve prime bases 2..37 is a deterministic primality
# proof below psi_12 = 318_665_857_834_031_151_167_461 (24 digits), the least
# strong pseudoprime to all of them (OEIS A014233; Sorenson and Webster,
# Math. Comp. 86 (2017)).  psi_13, 3.3e24, needs the base 41 as well.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 318_665_857_834_031_151_167_461
_EXTRA_MR_ROUNDS = 64


class FactorizationIncomplete(Exception):
    """The input exceeded the fixed factorization effort.

    Raised instead of ever returning a wrong or partial factorization.
    """


class InternalError(RuntimeError):
    """A proved invariant of the package failed: a bug, never bad input.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``.
    """


def to_decimal(n: int) -> str:
    """The decimal string of n, at any size.

    ``str(n)`` refuses ints past the interpreter's digit limit; this
    converts ``DECIMAL_CHUNK_DIGITS`` digits at a time instead.
    """
    if -_DECIMAL_CHUNK < n < _DECIMAL_CHUNK:
        return str(n)
    m = abs(n)
    chunks = []
    while m >= _DECIMAL_CHUNK:
        m, low = divmod(m, _DECIMAL_CHUNK)
        chunks.append(str(low).zfill(DECIMAL_CHUNK_DIGITS))
    chunks.append(str(m))
    return ("-" if n < 0 else "") + "".join(reversed(chunks))


def tuple_to_decimal(values) -> str:
    """``repr`` of a tuple of ints, with every entry written by ``to_decimal``."""
    body = ", ".join(to_decimal(v) for v in values)
    return f"({body},)" if len(values) == 1 else f"({body})"


def from_decimal(text: str) -> int:
    """The int written in decimal by text, at any size; inverse of ``to_decimal``.

    Text of every length must be an optional sign followed by ASCII digits,
    with surrounding whitespace (``str.strip``'s) allowed.  Anything else,
    such as ``1_0`` or non-ASCII digits that ``int`` would accept, raises
    ValueError.
    """
    body = text.strip()
    sign = -1 if body.startswith("-") else 1
    if body.startswith(("+", "-")):
        body = body[1:]
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid decimal integer of length {len(text)}")
    n = 0
    for start in range(0, len(body), DECIMAL_CHUNK_DIGITS):
        piece = body[start:start + DECIMAL_CHUNK_DIGITS]
        n = n * 10 ** len(piece) + int(piece)
    return sign * n


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality check.

    Deterministic (a proof) for n below psi_12 ~ 3.2e23; beyond that, 64 extra
    rounds with bases drawn from a generator seeded by n itself, so the
    answer is reproducible across runs.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in _MR_BASES:
        if witness(a):
            return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        for _ in range(_EXTRA_MR_ROUNDS):
            if witness(rng.randrange(2, n - 1)):
                return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n, by Brent's cycle variant of rho.

    Each attempt draws its parameters from a generator seeded by n alone.
    All attempts share ``RHO_STEP_BUDGET`` steps of the map y -> y*y + c: a
    round of r steps and r checked steps starts only if its 2r steps fit,
    and FactorizationIncomplete is raised when none does.
    """
    rng = random.Random(n)
    budget = RHO_STEP_BUDGET
    m = 128
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1:
            if 2 * r > budget:
                raise FactorizationIncomplete(
                    f"could not split composite {n} within {RHO_STEP_BUDGET} rho steps"
                )
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The increasing (prime, exponent) pairs of |n| for nonzero n, or an explicit refusal.

    One splitting loop: a piece that ``is_probable_prime`` accepts is a
    prime; any other piece is split by the first of ``_MR_BASES`` that
    divides it, or else by ``_brent_rho``.  Inputs wider than
    ``MAX_DIGITS`` decimal digits, and composites rho cannot split within
    ``RHO_STEP_BUDGET`` steps, raise FactorizationIncomplete rather than
    risking a wrong answer.  Results are memoized on n (see the module
    docstring); ``factorize.__wrapped__`` is the uncached function.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    m = abs(n)
    # compared as integers: str() of a huge m would hit the int-to-str limit
    if m >= _DIGIT_BOUND:
        raise FactorizationIncomplete(
            f"|n| has {m.bit_length()} bits, above the {MAX_DIGITS}-digit effort bound"
        )

    counts = Counter()
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if is_probable_prime(m):
            counts[m] += 1
            continue
        factor = next((p for p in _MR_BASES if m % p == 0), None) or _brent_rho(m)
        pending += (factor, m // factor)

    factors = tuple(sorted(counts.items()))
    back = prod(p**e for p, e in factors) * (1 if n > 0 else -1)
    if back != n:
        raise InternalError(f"the factorization of {to_decimal(n)} multiplies back to {to_decimal(back)}")
    return factors
