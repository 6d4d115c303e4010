import random
import sys
from itertools import combinations, takewhile
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decimal_by_digits, elementary_symmetric
from eschbaz import arith
from eschbaz.arith import (
    DECIMAL_CHUNK_DIGITS,
    FACTORIZE_CACHE_SIZE,
    FactorizationIncomplete,
    InternalError,
    factorize,
    from_decimal,
    is_probable_prime,
    to_decimal,
    tuple_to_decimal,
)


def sigma_by_subsets(k, xs):
    """Independent oracle: the literal sum over k-subsets of products."""
    return sum(prod(sub) for sub in combinations(xs, k)) if k else 1


def expand_product(xs):
    """Coefficients of prod_j (y + x_j), index = power of y."""
    coeffs = [1]
    for x in xs:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c  # times y
            new[i] += c * x  # times x
        coeffs = new
    return coeffs


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# elementary symmetric polynomials: the oracle for the package's written-out sigmas


def test_sigma_examples():
    assert elementary_symmetric(3, (3, -1, -1, 5, 23, -29)) == -4024
    assert elementary_symmetric(0, (7, 8)) == 1
    assert elementary_symmetric(2, (15, -2, -11)) == -173


def test_sigma_range_errors():
    with pytest.raises(ValueError):
        elementary_symmetric(-1, (1, 2))
    with pytest.raises(ValueError):
        elementary_symmetric(3, (1, 2))


@given(st.lists(st.integers(-50, 50), max_size=6))
def test_sigma_matches_subset_oracle(xs):
    for k in range(len(xs) + 1):
        assert elementary_symmetric(k, xs) == sigma_by_subsets(k, xs)


@given(st.lists(st.integers(-50, 50), max_size=6))
def test_sigma_matches_polynomial_expansion(xs):
    coeffs = expand_product(xs)
    m = len(xs)
    for k in range(m + 1):
        # coefficient of y^k is sigma_{m-k}
        assert coeffs[k] == elementary_symmetric(m - k, xs)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6), st.integers(0, 6))
def test_sigma_negation_parity(xs, k):
    if k > len(xs):
        k = len(xs)
    negated = [-x for x in xs]
    assert elementary_symmetric(k, negated) == (-1) ** k * elementary_symmetric(k, xs)


# ---------------------------------------------------------------------------
# factorization


def test_factorize_examples():
    assert factorize(-15) == ((3, 1), (5, 1))
    assert factorize(169) == ((13, 2),)
    assert factorize(4089800) == ((2, 3), (5, 2), (11, 2), (13, 2))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_units():
    assert factorize(1) == ()
    assert factorize(-1) == ()


@settings(max_examples=300)
@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert prod(p**e for p, e in f) == abs(n)
    primes = [p for p, _ in f]
    assert all(trial_division_prime(p) for p in primes)
    assert primes == sorted(set(primes))


def _primes_below(limit):
    """The primes below limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def test_factorize_splits_primes_past_the_small_bases():
    # factors are checked against a sieve, not is_probable_prime: every
    # prime here is below 10**12, so the primes below 10**6 decide it
    primes = _primes_below(10**6)
    mid = [p for p in primes if p > 37]

    def is_prime(n):
        return n > 1 and all(n % q for q in takewhile(lambda q: q * q <= n, primes))

    rng = random.Random(4104)
    samples = [p ** rng.randint(1, 4) for p in rng.sample(mid, 20)]
    samples += [p**2 for p in mid[:3] + mid[-3:]]
    samples += [37 * 41, 37**2, 41**2] + [2**k * 41 for k in (1, 2, 7, 30, 150)]
    samples += [p * _random_prime(rng, 10**11, 10**12) for p in (2, 3, 37, 41, rng.choice(mid))]
    for n in samples + [-n for n in samples]:
        f = factorize.__wrapped__(n)
        assert prod(p**e for p, e in f) == abs(n), n
        primes_of_n = [p for p, _ in f]
        assert primes_of_n == sorted(set(primes_of_n)), n
        assert all(is_prime(p) for p in primes_of_n), n


def test_factorize_beyond_trial_bound_uses_rho():
    p, q = 1000003, 1000033
    f = factorize(p * q)
    assert f == ((p, 1), (q, 1))
    # deterministic: same answer on every call
    assert factorize(p * q) == f


def test_factorize_large_prime_cofactor():
    n = 2**89 - 1  # Mersenne prime
    assert factorize(n * 6) == ((2, 1), (3, 1), (n, 1))


def test_factorize_digit_limit():
    # the edge of the MAX_DIGITS (64) bound: 2**212 has 64 digits, 10**64 has 65
    assert factorize(-(2**212)) == ((2, 212),)
    with pytest.raises(FactorizationIncomplete):
        factorize(10**64)
    with pytest.raises(FactorizationIncomplete):
        factorize(10**80 + 1)


def test_factorize_reconstruction_check_keeps_the_sign(monkeypatch):
    # rho "splits" 1000003 * 1000033 into the primes 1000183 and 999853,
    # whose product is not the input
    m = 1000003 * 1000033
    monkeypatch.setattr(arith, "_brent_rho", lambda n: 1000183)
    for n, back in ((m, 1000035973099), (-m, -1000035973099)):
        with pytest.raises(InternalError, match=f"^the factorization of {n} multiplies back to {back}$"):
            factorize.__wrapped__(n)


def test_factorize_digit_limit_past_int_to_str_limit():
    # 5001 digits: past the interpreter's 4300-digit int-to-str limit
    with pytest.raises(FactorizationIncomplete):
        factorize(10**5000 + 1)


def _random_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if is_probable_prime(p):
            return p


def _factorize_samples(rng):
    """Negatives, units, primes, prime powers, and composites for rho to split."""
    small = [_random_prime(rng, 3, 10**4) for _ in range(20)]
    large = [_random_prime(rng, 10**6, 10**9) for _ in range(10)]
    samples = [1, -1, 2, -2, 97, -(2**89 - 1)]
    samples += [p * sign for p in small + large for sign in (1, -1)]
    samples += [p ** rng.randint(2, 6) for p in small]
    # both primes above 10**6: rho splits these
    samples += [p * q for p, q in zip(large[:3], large[3:6])]
    # a repeated prime above 10**6: rho meets it twice
    samples += [large[6] ** 2]
    samples += [rng.randint(-10**9, 10**9) or 1 for _ in range(100)]
    return samples


def test_cached_factorize_matches_uncached():
    factorize.cache_clear()
    rng = random.Random(4101)
    for n in _factorize_samples(rng):
        expected = factorize.__wrapped__(n)
        assert factorize(n) == expected, n  # miss
        assert factorize(n) == expected, n  # hit
    assert factorize.cache_info().hits > 0


def test_factorize_errors_raise_on_every_call():
    factorize.cache_clear()
    for _ in range(3):
        with pytest.raises(FactorizationIncomplete):
            factorize(10**80 + 1)
        with pytest.raises(ValueError):
            factorize(0)
    assert factorize.cache_info().currsize == 0


def test_factorize_cache_is_bounded():
    maxsize = factorize.cache_info().maxsize
    assert maxsize == FACTORIZE_CACHE_SIZE
    assert isinstance(maxsize, int) and 0 < maxsize < 10**6


# ---------------------------------------------------------------------------
# decimal conversion


def test_to_decimal_matches_str_below_the_limit():
    rng = random.Random(4102)
    chunk = DECIMAL_CHUNK_DIGITS
    limit = sys.get_int_max_str_digits() or 4300  # 0 means no limit
    sizes = (1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, limit)
    for digits in (d for d in sizes if d <= limit):
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10 ** (digits - 1), 10**digits)):
            for x in (n, -n):
                assert to_decimal(x) == str(x)
                assert from_decimal(str(x)) == x
    assert to_decimal(0) == "0" and from_decimal("0") == 0


def test_decimal_round_trip_past_the_limit():
    rng = random.Random(4103)
    assert to_decimal(10**5000 + 7) == "1" + "0" * 4998 + "07"
    assert from_decimal("-" + "9" * 6000) == -(10**6000 - 1)
    for digits in (4301, 5 * DECIMAL_CHUNK_DIGITS, 9001):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        for x in (n, -n, 10**digits, 10 ** (digits - 1) * 3 + 1):
            text = to_decimal(x)
            assert text == decimal_by_digits(x)
            assert from_decimal(text) == x
            assert from_decimal(f" +{text} " if x > 0 else f" {text}\n") == x


def test_tuple_to_decimal_matches_repr_and_passes_the_limit():
    for values in ((), (7,), (-3, 0), (39, 0, 0), (5, 1, 1, 3, 21)):
        assert tuple_to_decimal(values) == repr(values)
    big = 10**5000 + 3
    assert tuple_to_decimal((big,)) == f"({decimal_by_digits(big)},)"
    assert tuple_to_decimal((1, -big, 0)) == f"(1, {decimal_by_digits(-big)}, 0)"


def test_from_decimal_rejects_malformed_long_text():
    body = "1" * 5000
    for bad in (body + "x", body[:100] + "_" + body, "--" + body, "+-" + body, "1.5" + body, " " * 700):
        with pytest.raises(ValueError):
            from_decimal(bad)
    with pytest.raises(ValueError):
        from_decimal("12a")


# (template, accepted); {} is the digits
_SYNTAX = [
    ("{}", True), ("+{}", True), ("-{}", True), (" {} ", True), ("\t-{}\n", True), ("\v\r+{}\f", True),
    ("\u2003{}\xa0", True), ("\x1c{}", True),
    ("1_{}", False), ("{}_1", False), ("\u0661{}", False), ("{}\u0660", False), ("\uff11{}", False),
    ("+-{}", False), ("--{}", False), ("- {}", False), ("{}.0", False), ("0x{}", False), ("{}e3", False),
]


@pytest.mark.parametrize("digits", ["12", "12" * 2500], ids=["short", "long"])
def test_from_decimal_has_one_syntax_at_every_length(digits):
    magnitude = from_decimal(digits)
    for template, accepted in _SYNTAX:
        text = template.format(digits)
        if accepted:
            assert from_decimal(text) == (-magnitude if "-" in template else magnitude), template
        else:
            with pytest.raises(ValueError):
                from_decimal(text)
    for empty in ("", " ", "+", "-"):
        with pytest.raises(ValueError):
            from_decimal(empty)


def test_is_probable_prime_small():
    # 0, 1 and negative numbers are not prime
    primes = [p for p in range(2, 200) if trial_division_prime(p)]
    for n in range(-5, 200):
        assert is_probable_prime(n) == (n in primes)


# psi_12 and psi_13 (OEIS A014233): the least strong pseudoprimes to the first
# 12 and 13 prime bases; the package's 12 bases stop at 37.
PSI12 = 318_665_857_834_031_151_167_461
PSI13 = 3_317_044_064_679_887_385_961_981


def test_is_probable_prime_rejects_the_strong_pseudoprimes_to_its_bases():
    assert PSI12 == 399_165_290_221 * 798_330_580_441
    assert not is_probable_prime(PSI12)
    assert not is_probable_prime(PSI13)


def test_factorize_never_returns_psi12_as_a_prime():
    try:
        f = factorize.__wrapped__(PSI12)
    except FactorizationIncomplete:
        return
    assert f == ((399_165_290_221, 1), (798_330_580_441, 1))


def test_the_first_prime_past_psi12_still_tests_prime():
    n = PSI12 + 22
    assert is_probable_prime(n)
    # False is a proof: a Miller-Rabin witness was found
    assert not any(is_probable_prime(m) for m in range(PSI12, n))
    # Lucas's test on the full factorization of n - 1 proves n prime
    factors = (2, 11, 47, 283, 449, 733, 3_308_858_880_343)
    assert prod(factors) == n - 1 and all(trial_division_prime(q) for q in factors)
    for q in factors:
        assert any(pow(a, n - 1, n) == 1 and pow(a, (n - 1) // q, n) != 1 for a in range(2, 10)), q


def test_concurrent_use_is_safe():
    # pure functions: hammer from threads and compare against serial answers
    import concurrent.futures

    values = [random.Random(0).randint(2, 10**9) for _ in range(200)]
    expected = [factorize(v) for v in values]
    with concurrent.futures.ThreadPoolExecutor(8) as pool:
        got = list(pool.map(factorize, values))
    assert got == expected
