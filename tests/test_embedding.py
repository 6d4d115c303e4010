import collections
import dataclasses
import random
import re
import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_esch, random_free_esch, random_pc_esch
from oracles import (
    collision_locus,
    decimal_by_digits,
    elementary_symmetric,
    enumerate_normal_forms,
    freeness_failures_oracle,
    h6_order_oracle,
    is_free_baz_oracle,
    is_pc_baz_oracle,
    is_pc_metric_oracle,
    nonsingular_shift_oracle,
    shift_prime_product_oracle,
    sigma3_shift_closed_form,
)
from eschbaz import (
    BazParams,
    EmbeddingCertificate,
    EschParams,
    InternalError,
    candidate_q,
    certified_shift,
    dual_embedding,
    family_cohomogeneity_one,
    homotopy_distinct_embeddings,
    host_facts,
    is_free,
    is_free_baz,
    is_pc_metric,
    nonsingular_shift,
    pc_normal_form,
    pc_shift_window,
    shift,
    window_scan,
)
from eschbaz import embedding
from eschbaz.embedding import (
    COHOM1_WINDOW_NOTE,
    _moduli,
    make_certificate,
    shift_prime_product,
)

E_RUNNING = EschParams((2, 0, 0), (15, -2, -11))


def six_tuple(e, c):
    return tuple(2 * (x + c) + 1 for x in e.a) + tuple(-2 * (x + c) - 1 for x in e.b)


def assert_is_make_certificate(cert):
    """cert equals a fresh make_certificate(cert.esch, cert.shift) field by field."""
    expected = make_certificate(cert.esch, cert.shift)
    for field in dataclasses.fields(cert):
        assert getattr(cert, field.name) == getattr(expected, field.name), (cert.esch, cert.shift, field.name)


# ---------------------------------------------------------------------------
# candidate construction


def test_candidate_q_examples():
    assert candidate_q(E_RUNNING, 0) == BazParams((5, 1, 1, 3, 21))
    assert candidate_q(E_RUNNING, 2) == BazParams((9, 5, 5, -1, 17))
    assert candidate_q(E_RUNNING, -1) == BazParams((3, -1, -1, 5, 23))


def test_candidate_q_sum_identity():
    rng = random.Random(307)
    for _ in range(2000):
        e = random_esch(rng, -30, 30)
        c = rng.randint(-50, 50)
        q = candidate_q(e, c)
        assert q.qsum == 2 * (e.b[0] + c) + 1
        assert q.all_odd()


def test_candidate_q_shift_compatibility():
    rng = random.Random(311)
    for _ in range(2000):
        e = random_esch(rng, -30, 30)
        c = rng.randint(-50, 50)
        assert candidate_q(shift(e, c), 0) == candidate_q(e, c)


# ---------------------------------------------------------------------------
# non-singularity at a shift


def test_nonsingular_shift_examples():
    assert not nonsingular_shift(E_RUNNING, 0)
    assert nonsingular_shift(E_RUNNING, -1)
    assert nonsingular_shift(E_RUNNING, 5)


def test_nonsingular_shift_matches_candidate_freeness():
    rng = random.Random(313)
    for _ in range(10_000):
        e = random_esch(rng, -25, 25)
        c = rng.randint(-40, 40)
        assert nonsingular_shift(e, c) == is_free_baz(candidate_q(e, c)), (e, c)


def test_nonsingular_shift_matches_nine_gcd_oracle():
    rng = random.Random(4201)
    free = [random_free_esch(rng, -40, 40) for _ in range(30)]
    non_free = []
    while len(non_free) < 15:
        e = random_esch(rng, -40, 40)
        if not is_free(e):
            non_free.append(e)
    vanishing = [EschParams((0, 2, 2), (0, 1, 3)), EschParams((0, 0, 0), (0, 0, 0))]
    while len(vanishing) < 17:
        e = random_esch(rng, -15, 15)
        if 0 in [ak - bl for ak in e.a for bl in e.b]:
            vanishing.append(e)
    assert any(is_free(e) for e in vanishing) and not all(is_free(e) for e in vanishing)
    for e in free + non_free + vanishing:
        for c in range(-200, 201):
            assert nonsingular_shift(e, c) == nonsingular_shift_oracle(e, c), (e, c)


def test_common_prime_divisors_are_odd():
    # for free parameters, any prime dividing both a_i + a_j + 1 and a_k - b_l
    # must be odd
    rng = random.Random(317)
    for _ in range(3000):
        e = random_free_esch(rng, -40, 40)
        for k in range(3):
            i, j = (x for x in range(3) if x != k)
            pair_sum = e.a[i] + e.a[j] + 1
            for bl in e.b:
                assert gcd(pair_sum, e.a[k] - bl) % 2 == 1


# ---------------------------------------------------------------------------
# certified shifts


def test_certified_shift_examples():
    assert certified_shift(E_RUNNING, 1, 1) == 4089800
    assert 4089800 == 2**3 * 5**2 * 11**2 * 13**2
    assert certified_shift(E_RUNNING, 2, 1) == 2 * 4089800**2
    assert certified_shift(EschParams((1, 1, 1), (3, 0, 0)), 1, 1) == 8


def test_certified_shift_sign_and_mu():
    assert certified_shift(E_RUNNING, 1, -1) == -4089800
    with pytest.raises(ValueError):
        certified_shift(E_RUNNING, 0, 1)
    with pytest.raises(ValueError):
        certified_shift(E_RUNNING, 1, 2)
    with pytest.raises(ValueError):
        certified_shift(EschParams((0, 0, 0), (0, 0, 0)), 1, 1)  # not free


def test_range_errors_write_values_past_the_int_to_str_limit():
    big = 10**5000
    with pytest.raises(ValueError, match=f"^mu must be >= 1, got -{decimal_by_digits(big)}$"):
        certified_shift(E_RUNNING, -big, 1)
    with pytest.raises(ValueError, match=f"^sign must be \\+1 or -1, got {decimal_by_digits(big)}$"):
        certified_shift(E_RUNNING, 1, big)
    with pytest.raises(ValueError, match=f"^n must be >= 1, got -{decimal_by_digits(big)}$"):
        homotopy_distinct_embeddings(E_RUNNING, -big)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        homotopy_distinct_embeddings(E_RUNNING, False)


def test_certified_shift_rejects_vanishing_differences():
    # free parameters with a_k == b_l exist (a1 == b1 here); for them the
    # candidate pair sum 2(a_k - b_l) is 0 at every shift, so at most two
    # shifts can be non-singular and there is no guaranteed-shift form
    e = EschParams((0, 2, 2), (0, 1, 3))
    assert is_free(e)
    assert 0 in [ak - bl for ak in e.a for bl in e.b]
    with pytest.raises(ValueError, match="vanishing difference"):
        certified_shift(e, 1, 1)
    with pytest.raises(ValueError, match="vanishing difference"):
        homotopy_distinct_embeddings(e, 1)
    # the only candidate shifts make |a2 + a3 + 1 + 2c| == 1, i.e. c in {-2, -3}
    good = [c for c in range(-100, 101) if nonsingular_shift(e, c)]
    assert set(good) <= {-2, -3}
    assert good  # and at least one of them works here
    # the window machinery is unaffected: vanishing differences cannot occur
    # for positively curved parameters
    assert not is_pc_metric(e)


def test_cached_checked_prime_product_matches_uncached(prime_product_calls):
    rng = random.Random(4202)
    spaces = list(dict.fromkeys(random_free_esch(rng, -60, 60, nonzero_diffs=True) for _ in range(100)))
    for e in spaces:
        expected = shift_prime_product_oracle(e)
        assert shift_prime_product(e) == expected, e  # computed
        assert shift_prime_product(e) == expected, e  # read off the record
        assert embedding._walked[0] is e and embedding._walked[2] == expected
    assert prime_product_calls == spaces


def test_prime_product_memo_misses_once_per_space_walked(prime_product_calls, monkeypatch):
    # the calls a certify run makes per space: certified shifts for mu <= 3
    # and both signs, each checked by nonsingular_shift, then three hosts
    # with distinct |H^6|; freeness, the moduli and P are each worked out once
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name in ("is_free", "_moduli", "shift_prime_product"):
        monkeypatch.setattr(embedding, name, counted(name, getattr(embedding, name)))
    rng = random.Random(4203)
    spaces = {}
    while len(spaces) < 50:
        spaces[random_free_esch(rng, -50, 50, nonzero_diffs=True)] = None
    for e in spaces:
        for mu in range(1, 4):
            for sign in (1, -1):
                assert nonsingular_shift(e, certified_shift(e, mu, sign))
        homotopy_distinct_embeddings(e, 3)
    assert prime_product_calls == list(spaces)
    assert (counts["is_free"], counts["_moduli"]) == (50, 50), counts
    assert counts["shift_prime_product"] >= 50 * (6 + 3), counts  # the distinct hosts take at least three shifts


@pytest.mark.parametrize(("e", "reason"), [
    (EschParams((1, 0, 0), (3, 1, -3)), "only for free parameters"),
    (EschParams((0, 2, 2), (0, 1, 3)), "vanishing difference"),  # free, a1 - b1 vanishes
])
def test_checked_prime_product_never_caches_an_error(prime_product_calls, e, reason):
    shift_prime_product(E_RUNNING)
    raised = []
    for _ in range(3):
        with pytest.raises(ValueError, match=reason) as info:
            shift_prime_product(e)
        raised.append(info.value)
        with pytest.raises(ValueError, match=reason) as info:
            certified_shift(e, 1, 1)
        raised.append(info.value)
        # the record holds e's freeness and moduli, never a P or an error
        assert embedding._walked == (e, _moduli(*e.a, *e.b) if is_free(e) else None, None)
    assert len({id(error) for error in raised}) == len(raised)  # each call raised afresh
    assert prime_product_calls == [E_RUNNING]


def distinct_host_shifts(e, p, n):
    """The first n certified shifts sign * 2**(mu-1) * p**mu with distinct |H^6|, from the oracle."""
    shifts, seen = [], set()
    for mu in range(1, n + 2):
        for sign in (1, -1):
            c = sign * 2 ** (mu - 1) * p**mu
            h6 = h6_order_oracle(candidate_q(e, c))
            if h6 not in seen:
                seen.add(h6)
                shifts.append(c)
    return shifts[:n]


def test_record_follows_interleaved_spaces():
    # spaces A, B, A walked in turn, and a space equal to A but not A itself,
    # get the uncached answers from every function that reads the record
    rng = random.Random(4205)
    a, b = E_RUNNING, random_free_esch(rng, -40, 40, nonzero_diffs=True)
    twin = EschParams(a.a, a.b)
    assert twin == a and twin is not a and b != a
    for c in range(-20, 21):  # a new space at every call
        for e in (a, b, twin):
            assert nonsingular_shift(e, c) == nonsingular_shift_oracle(e, c), (e, c)
    results = {}
    for e in (a, b, a, twin, b, twin):
        verdicts = [nonsingular_shift(e, c) for c in range(-20, 21)]
        assert verdicts == [nonsingular_shift_oracle(e, c) for c in range(-20, 21)], e
        p = shift_prime_product_oracle(e)
        for mu in (1, 2):
            for sign in (1, -1):
                c = certified_shift(e, mu, sign)
                assert c == sign * 2 ** (mu - 1) * p**mu, e
                assert nonsingular_shift(e, c) and nonsingular_shift_oracle(e, c), (e, c)
        certs = homotopy_distinct_embeddings(e, 3)
        assert [cert.shift for cert in certs] == distinct_host_shifts(e, p, 3), e
        for cert in certs:
            assert_is_make_certificate(cert)
        # an equal space gets identical results, not just equal verdicts
        assert results.setdefault(e, (verdicts, certs)) == (verdicts, certs), e
    assert embedding._walked[0] is twin


def test_record_is_consistent_across_two_threads(monkeypatch):
    # two threads walk disjoint seeded spaces at once, switching as often as
    # the interpreter allows and whenever one works out a space's facts;
    # every P and verdict must be the space's own
    def yielding(fn):
        def call(*args):
            time.sleep(0)  # let the other thread run
            return fn(*args)
        return call

    for name in ("is_free", "_moduli", "_prime_product"):
        monkeypatch.setattr(embedding, name, yielding(getattr(embedding, name)))
    rng = random.Random(4204)
    spaces = list(dict.fromkeys(random_free_esch(rng, -60, 60, nonzero_diffs=True) for _ in range(400)))
    halves = spaces[::2], spaces[1::2]
    expected = {e: shift_prime_product_oracle(e) for e in spaces}
    got = [[], []]

    start = threading.Barrier(2, timeout=60)

    def walk(index):
        start.wait()
        for _ in range(ROUNDS):
            for e in halves[index]:
                p = shift_prime_product(e)
                got[index].append((e, p, certified_shift(e, 1, -1) == -p, nonsingular_shift(e, p)))

    ROUNDS = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(index,)) for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in (0, 1):
        assert len(got[index]) == ROUNDS * len(halves[index])
        for e, p, certified, nonsingular in got[index]:
            assert (p, certified, nonsingular) == (expected[e], True, True), e


def test_shift_prime_product_matches_its_definition():
    rng = random.Random(2718)
    spaces = [random_free_esch(rng, -30, 30, nonzero_diffs=True) for _ in range(100)]
    for e in spaces + [E_RUNNING]:
        assert shift_prime_product(e) == shift_prime_product_oracle(e), e
    # unchecked spaces: P is defined only where the certified shifts exist
    refused = 0
    for _ in range(30):
        e = random_esch(rng, -15, 15)
        if is_free(e) and not set(e.a) & set(e.b):
            assert shift_prime_product(e) == shift_prime_product_oracle(e), e
        else:
            with pytest.raises(ValueError, match="only for free parameters|vanishing difference"):
                shift_prime_product(e)
            refused += 1
    assert refused == 24  # the other 6 are free with nine nonzero differences


def test_certified_shifts_always_nonsingular_sampled():
    rng = random.Random(331)
    for _ in range(300):
        e = random_free_esch(rng, -50, 50, nonzero_diffs=True)
        for mu in (1, 2, 3):
            for sign in (1, -1):
                c = certified_shift(e, mu, sign)
                assert nonsingular_shift(e, c), (e, mu, sign, c)


# ---------------------------------------------------------------------------
# sigma_3 closed form and collisions


def test_sigma3_closed_form_examples():
    assert sigma3_shift_closed_form(E_RUNNING, -1) == -4024
    assert sigma3_shift_closed_form(EschParams((1, 0, 0), (1, 0, 0)), 7) == 0
    assert sigma3_shift_closed_form(E_RUNNING, 2) == -12328
    assert abs(-12328) == 8 * 1541


def test_sigma3_closed_form_matches_direct_expansion():
    rng = random.Random(337)
    for _ in range(10_000):
        e = random_esch(rng, -30, 30)
        c = rng.randint(-50, 50)
        assert sigma3_shift_closed_form(e, c) == elementary_symmetric(3, six_tuple(e, c))


def test_collision_locus_examples():
    assert collision_locus(E_RUNNING) == Fraction(-330, 173) - 3 == Fraction(-849, 173)
    assert collision_locus(EschParams((1, 0, 0), (1, 0, 0))) is None  # everywhere
    assert collision_locus(EschParams((1, 1, 1), (3, 0, 0))) == Fraction(-11, 3)


def test_collision_locus_against_brute_force():
    rng = random.Random(347)
    for _ in range(200):
        e = random_esch(rng, -12, 12)
        locus = collision_locus(e)
        values = {c: abs(sigma3_shift_closed_form(e, c)) for c in range(-20, 21)}
        for c in range(-20, 21):
            for d in range(c + 1, 21):
                collide = values[c] == values[d]
                predicted = locus is None or Fraction(c + d) == locus
                assert collide == predicted, (e, c, d)


@pytest.mark.parametrize(("seed", "bound", "n"), [
    (9, 3, 10_000),
    (10, 10**6, 10_000),
    (11, 10**5000, 100),
], ids=["up-to-3", "up-to-1e6", "5000-digits"])
def test_collision_locus_matches_the_sigma_oracle(seed, bound, n):
    rng = random.Random(seed)
    everywhere = 0
    for _ in range(n):
        e = random_esch(rng, -bound, bound)
        d2 = elementary_symmetric(2, e.a) - elementary_symmetric(2, e.b)
        d3 = elementary_symmetric(3, e.a) - elementary_symmetric(3, e.b)
        expected = None if d2 == 0 else Fraction(d3, d2) - sum(e.a) - 1
        assert collision_locus(e) == expected, e
        everywhere += expected is None
    if bound == 3:
        assert everywhere > 0


# ---------------------------------------------------------------------------
# curvature windows


def test_pc_shift_window_examples():
    assert pc_shift_window(EschParams((39, 0, 0), (55, -3, -13))) == range(0, 8)
    assert pc_shift_window(EschParams((309, 6, 0), (323, -3, -5))) == range(-3, 4)
    assert pc_shift_window(E_RUNNING) == range(0, 6)
    # the inequality chain alone is the precondition; min(a) need not be 0,
    # and the window is expressed in the input's own shift coordinates
    assert pc_shift_window(EschParams((3, 1, 1), (5, 0, 0))) == range(-1, 0)


def test_pc_shift_window_requires_normal_form():
    with pytest.raises(ValueError, match=r"^a=\(1, 1, 0\) b=\(2, 1, -1\) is not in positive-curvature normal form$"):
        pc_shift_window(EschParams((1, 1, 0), (2, 1, -1)))  # not positively curved
    with pytest.raises(ValueError, match=r"^a=\(1, 1, 1\) b=\(-1, 2, 2\) is not in positive-curvature normal form$"):
        pc_shift_window(EschParams((1, 1, 1), (-1, 2, 2)))  # mirrored chain


def test_window_membership_is_curvature():
    rng = random.Random(349)
    for _ in range(500):
        f = pc_normal_form(random_pc_esch(rng, -25, 25))
        window = pc_shift_window(f)
        assert len(window) > 0
        for c in range(window.start - 3, window.stop + 3):
            assert host_facts(candidate_q(f, c))[1] == (c in window), (f, c)


def test_window_scan_table_row_one():
    report = window_scan(EschParams((39, 0, 0), (55, -3, -13)))
    assert report.window == range(0, 8)
    assert not report.any_nonsingular
    assert all(not cert.baz_free for cert in report.certificates)
    assert all(cert.baz_pc for cert in report.certificates)


def test_window_scan_running_example():
    report = window_scan(E_RUNNING)
    good = {cert.shift: cert for cert in report.certificates if cert.baz_free}
    assert set(good) == {2, 5}
    assert good[2].baz.q == (9, 5, 5, -1, 17) and good[2].baz_pc and good[2].h6 == 1541
    assert good[5].baz.q == (15, 11, 11, -7, 11) and good[5].baz_pc and good[5].h6 == 2579
    assert report.any_nonsingular
    assert report.notes == ()


def test_window_scan_normalizes_and_emits_family_note():
    # a=(3,1,1), b=(5,0,0) normalizes to a=(2,0,0), b=(4,-1,-1); its single
    # window shift carries the candidate (5,1,1,1,1)
    report = window_scan(EschParams((3, 1, 1), (5, 0, 0)))
    assert report.esch == EschParams((2, 0, 0), (4, -1, -1))
    assert report.window == range(0, 1)
    (cert,) = report.certificates
    assert cert.baz.q == (5, 1, 1, 1, 1)
    assert cert.baz_free and cert.baz_pc
    assert report.notes == (COHOM1_WINDOW_NOTE,)
    assert "-1 <= c <= 0" in report.notes[0] and "{-1}" in report.notes[0]


def test_window_scan_cap_is_checked_before_any_certificate(monkeypatch):
    import eschbaz.embedding as embedding_mod

    # the running example shifted by 3, out of normal form; its window 0..5 has 6 shifts
    e = EschParams((5, 3, 3), (18, 1, -8))
    assert window_scan(e, 6) == window_scan(e) == window_scan(E_RUNNING)

    def no_certificates(*args):
        raise AssertionError("a certificate was built past the cap")

    monkeypatch.setattr(embedding_mod, "make_certificate", no_certificates)
    with pytest.raises(ValueError) as info:
        window_scan(e, 5)
    assert str(info.value) == f"the curvature window of {e} has 6 shifts; window is capped at 5 shifts"
    # the cap is an integer: a float is refused, a bool counts as 0 or 1
    with pytest.raises(TypeError):
        window_scan(e, 2.5)
    with pytest.raises(ValueError, match="; window is capped at 1 shifts$"):
        window_scan(e, True)


def _has_cohom1_shape(f):
    """a=(t,0,0), b=(t+2,-1,-1): the normal form of the cohomogeneity-one family."""
    t = f.a[0]
    return f.a == (t, 0, 0) and f.b == (t + 2, -1, -1)


def test_window_scan_notes_exactly_the_cohomogeneity_one_shape():
    family = [family_cohomogeneity_one(p) for p in range(1, 201)]
    assert all(_has_cohom1_shape(pc_normal_form(e)) for e in family)
    box = [EschParams(a, b) for a, b in sorted(enumerate_normal_forms(20))]
    assert any(_has_cohom1_shape(f) for f in box)  # the box holds spaces of both kinds
    for e in family + box:
        report = window_scan(e)
        assert report.notes == ((COHOM1_WINDOW_NOTE,) if _has_cohom1_shape(report.esch) else ()), e


def test_window_scan_rejects_non_pc():
    not_pc = r"^a=\(1, 1, 0\) b=\(2, 1, -1\) fails the fixed-metric positive-curvature test$"
    with pytest.raises(ValueError, match=not_pc):
        window_scan(EschParams((1, 1, 0), (2, 1, -1)))


def test_window_scan_certificates_recompute():
    rng = random.Random(353)
    for _ in range(100):
        report = window_scan(random_pc_esch(rng, -20, 20))
        for cert in report.certificates:
            assert cert.baz == candidate_q(cert.esch, cert.shift)
            assert cert.baz_free == is_free_baz_oracle(cert.baz)
            assert cert.offending_pairs == tuple(freeness_failures_oracle(cert.baz))
            assert cert.baz_pc == host_facts(cert.baz)[1]
            assert cert.h6 == (host_facts(cert.baz)[2] if cert.baz_free else 0)
            assert_is_make_certificate(cert)
        assert report.any_nonsingular == any(c.baz_free for c in report.certificates)


# ---------------------------------------------------------------------------
# distinct embedding targets


def test_homotopy_distinct_embeddings_examples():
    certs = homotopy_distinct_embeddings(E_RUNNING, 3)
    assert len(certs) == 3
    assert all(cert.baz_free for cert in certs)
    h6s = [cert.h6 for cert in certs]
    assert len(set(h6s)) == 3

    certs = homotopy_distinct_embeddings(EschParams((1, 1, 1), (3, 0, 0)), 2)
    assert len({cert.h6 for cert in certs}) == 2

    (cert,) = homotopy_distinct_embeddings(EschParams((39, 0, 0), (55, -3, -13)), 1)
    assert cert.baz_free


def test_homotopy_distinct_embeddings_certificates_consistent():
    certs = homotopy_distinct_embeddings(E_RUNNING, 4)
    for cert in certs:
        assert cert.baz == candidate_q(cert.esch, cert.shift)
        assert nonsingular_shift(cert.esch, cert.shift)
    with pytest.raises(ValueError):
        homotopy_distinct_embeddings(EschParams((0, 0, 0), (0, 0, 0)), 1)
    with pytest.raises(ValueError):
        homotopy_distinct_embeddings(E_RUNNING, 0)


@pytest.mark.parametrize("e", [EschParams((1, 0, 0), (3, 1, -3)),  # not free
                               EschParams((0, 2, 2), (0, 1, 3))])  # free, a1 - b1 vanishes
def test_homotopy_distinct_embeddings_fails_as_certified_shift_does(e):
    with pytest.raises(ValueError) as expected:
        certified_shift(e, 1, 1)
    with pytest.raises(ValueError) as info:
        homotopy_distinct_embeddings(e, 2)
    assert str(info.value) == str(expected.value)


def test_homotopy_distinct_embeddings_bulk():
    rng = random.Random(359)
    for _ in range(100):
        e = random_free_esch(rng, -30, 30, nonzero_diffs=True)
        certs = homotopy_distinct_embeddings(e, 3)
        assert len({c.h6 for c in certs}) == 3
        assert all(c.baz_free for c in certs)
        for cert in certs:
            assert_is_make_certificate(cert)


def test_every_certificate_is_built_by_make_certificate(monkeypatch, capsys):
    import eschbaz
    from eschbaz import cli, embedding as embedding_mod, survey

    original = embedding_mod.make_certificate
    built = []

    def counted(e, c):
        cert = original(e, c)
        built.append(cert)
        return cert

    # every module attribute that holds it: survey and the package name-import it
    for module in (eschbaz, embedding_mod, survey, cli):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)

    a, b, _ = survey.KNOWN_COUNTEREXAMPLES[0]
    for call in (lambda: window_scan(EschParams(a, b)).certificates,
                 lambda: homotopy_distinct_embeddings(E_RUNNING, 3),
                 lambda: [cert for _, cert in survey.verify_cohomogeneity_one(5)]):
        built.clear()
        certs = list(call())
        assert certs and built == certs
    built.clear()
    assert cli.run(["embed", "--a", "2,0,0", "--b", "15,-2,-11", "--c", "2"]) == 0
    capsys.readouterr()
    assert built == [original(E_RUNNING, 2)]


# ---------------------------------------------------------------------------
# duality


def test_dual_embedding_examples():
    swapped, dual = dual_embedding(E_RUNNING, -1)
    assert dual.q == (29, -5, -23, 1, 1)
    assert swapped == EschParams((14, -3, -12), (1, -1, -1))
    assert host_facts(dual)[2] == 503

    swapped, dual = dual_embedding(EschParams((3, 1, 1), (5, 0, 0)), -1)
    assert dual.q == (9, -1, -1, -1, -1)
    assert host_facts(dual)[2] == host_facts(candidate_q(EschParams((3, 1, 1), (5, 0, 0)), -1))[2]


def test_dual_embedding_requires_nonsingular():
    with pytest.raises(ValueError, match=rf"^shift 0 of {re.escape(str(E_RUNNING))} yields a singular candidate$"):
        dual_embedding(E_RUNNING, 0)


def test_dual_embedding_preserves_h6_and_freeness_bulk():
    rng = random.Random(367)
    checked = 0
    while checked < 1000:
        e = random_free_esch(rng, -25, 25)
        c = rng.randint(-20, 20)
        if not nonsingular_shift(e, c):
            continue
        checked += 1
        q = candidate_q(e, c)
        swapped, dual = dual_embedding(e, c)
        assert is_free_baz(dual), (e, c)
        assert host_facts(dual)[2] == host_facts(q)[2]
        assert dual == candidate_q(swapped, 0)


def test_make_certificate_offending_pairs():
    cert = make_certificate(E_RUNNING, 0)
    assert not cert.baz_free
    assert ((1, 2), (4, 5), 6) in cert.offending_pairs
    assert cert.h6 == 0
    assert cert.esch_pc


@pytest.mark.parametrize("digits, samples", [(2, 300), (12, 300), (4400, 40)])
def test_make_certificate_freeness_matches_oracles(digits, samples):
    # any space and any shift, curved or not, at three magnitudes (the last past the digit limit)
    rng = random.Random(digits)
    bound = 10**digits
    free_seen = 0
    for _ in range(samples):
        e, c = random_esch(rng, -bound, bound), rng.randint(-bound, bound)
        cert = make_certificate(e, c)
        assert cert.baz_free == is_free_baz_oracle(cert.baz), (e, c)
        assert cert.offending_pairs == tuple(freeness_failures_oracle(cert.baz)), (e, c)
        assert cert.h6 == (host_facts(cert.baz)[2] if cert.baz_free else 0), (e, c)
        free_seen += cert.baz_free
    assert 0 < free_seen < samples


def oracle_certificate(e, c):
    """The certificate for shift c of e, composed from the generic oracles."""
    entries = six_tuple(e, c)
    q = BazParams(entries[:3] + entries[4:])
    failures = freeness_failures_oracle(q)
    return EmbeddingCertificate(esch=e, shift=c, baz=q, baz_free=is_free_baz_oracle(q), baz_pc=is_pc_baz_oracle(q),
                                esch_pc=is_pc_metric_oracle(e), h6=0 if failures else h6_order_oracle(q),
                                offending_pairs=tuple(failures))


def assert_matches_oracle_certificate(e, c):
    cert, expected = make_certificate(e, c), oracle_certificate(e, c)
    for field in dataclasses.fields(cert):
        assert getattr(cert, field.name) == getattr(expected, field.name), (e, c, field.name)
    return cert


def test_make_certificate_matches_the_oracles_on_window_shifts():
    rng = random.Random(421)
    free_seen = singular_seen = 0
    for _ in range(150):
        f = pc_normal_form(random_pc_esch(rng, -40, 40))
        for c in pc_shift_window(f):
            cert = assert_matches_oracle_certificate(f, c)
            free_seen += cert.baz_free
            singular_seen += not cert.baz_free
    assert free_seen and singular_seen


def test_make_certificate_matches_the_oracles_on_certified_shifts():
    rng = random.Random(431)
    for _ in range(40):
        e = random_free_esch(rng, -50, 50, nonzero_diffs=True)
        for mu in range(1, 5):
            for sign in (1, -1):
                assert assert_matches_oracle_certificate(e, certified_shift(e, mu, sign)).baz_free
    for sign in (1, -1):
        assert assert_matches_oracle_certificate(E_RUNNING, certified_shift(E_RUNNING, 640, sign)).baz_free


def test_shift_arguments_go_through_operator_index():
    # a float shift, mu or sign raises, as a float parameter does; a bool is recorded as an int
    for mu, sign in ((2.5, 1), (1.0, 1), (1, 1.0), (1, -1.0)):
        with pytest.raises(TypeError):
            certified_shift(E_RUNNING, mu, sign)
    for c in (2.5, 2.0):
        with pytest.raises(TypeError):
            make_certificate(E_RUNNING, c)
    c = certified_shift(E_RUNNING, True, True)
    assert c == certified_shift(E_RUNNING, 1, 1) and type(c) is int
    cert = make_certificate(E_RUNNING, True)
    assert cert == make_certificate(E_RUNNING, 1) and type(cert.shift) is int


# ---------------------------------------------------------------------------
# internal invariants are checked by raising, so they survive ``python -O``


def test_broken_invariants_raise_internal_error(monkeypatch):
    import eschbaz.bazaikin as bazaikin_mod
    import eschbaz.embedding as embedding_mod
    import eschbaz.eschenburg as eschenburg_mod

    with monkeypatch.context() as mp:
        mp.setattr(eschenburg_mod, "_in_chain", lambda *entries: False)
        with pytest.raises(InternalError, match="breaks the normal-form chain"):
            pc_normal_form(E_RUNNING)

    with monkeypatch.context() as mp:
        mp.setattr(embedding_mod, "_in_chain", lambda *entries: True)
        with pytest.raises(InternalError, match="empty shift window"):
            pc_shift_window(EschParams((0, 0, 0), (0, 0, 0)))

    with monkeypatch.context() as mp:
        # (2, 1, 1, 1, 1) has sigma_3 = -(3 * 3 * 2 + 2 * (-5) * (-5)) = -68, which is 4 mod 8
        mp.setattr(bazaikin_mod.BazParams, "all_odd", lambda self: True)
        with pytest.raises(InternalError, match="not divisible by 8"):
            host_facts(BazParams((2, 1, 1, 1, 1)))

    with monkeypatch.context() as mp:
        mp.setattr(embedding_mod, "make_certificate",
                   lambda e, c: dataclasses.replace(make_certificate(e, c), baz_free=False))
        with pytest.raises(InternalError, match="produced a singular candidate"):
            homotopy_distinct_embeddings(E_RUNNING, 2)

    with monkeypatch.context() as mp:
        mp.setattr(embedding_mod, "make_certificate",
                   lambda e, c: dataclasses.replace(make_certificate(e, c), h6=1))
        with pytest.raises(InternalError, match="could not reach 2 distinct"):
            homotopy_distinct_embeddings(E_RUNNING, 2)

    with monkeypatch.context() as mp:
        # dual_embedding(e, 2) asks for the shift-0 candidate of the swapped space last
        mp.setattr(embedding_mod, "candidate_q", lambda e, c: candidate_q(e, c or 1))
        with pytest.raises(InternalError, match="differs from the swapped space's shift-0 candidate"):
            dual_embedding(E_RUNNING, 2)
