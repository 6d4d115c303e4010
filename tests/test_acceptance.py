"""Acceptance suite: one test per exit criterion, all exact-integer (tolerance
zero), each printing a single PASS/FAIL line (run with -s to see them).
"""

import random
import time
from fractions import Fraction

from conftest import random_esch, random_free_esch, random_odd_baz
from oracles import (
    collision_locus,
    elementary_symmetric,
    is_free_baz_oracle,
    is_free_oracle,
    sigma3_shift_closed_form,
)
from eschbaz import (
    BazParams,
    EschParams,
    candidate_q,
    certified_shift,
    dual_embedding,
    freeness_failures,
    h4_order,
    h6_order,
    is_free,
    is_free_baz,
    is_pc_baz,
    is_pc_metric,
    kernel_order,
    nonsingular_shift,
    scan_box,
    shift,
    submanifolds,
    verify_cohomogeneity_one,
    verify_infinite_families,
    verify_known_counterexamples,
    window_scan,
)
from eschbaz.survey import KNOWN_COUNTEREXAMPLES

E_RUNNING = EschParams((2, 0, 0), (15, -2, -11))


def _report(number, description, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number:02d} PASS  {description}  [{elapsed:.3f}s]")


def test_criterion_01_running_example():
    def body():
        def reproduce():
            q0 = candidate_q(E_RUNNING, 0)
            assert q0 == BazParams((5, 1, 1, 3, 21))
            assert not is_free_baz(q0)
            assert ((1, 2), (4, 5), 6) in freeness_failures(q0)

            qm1 = candidate_q(E_RUNNING, -1)
            assert qm1 == BazParams((3, -1, -1, 5, 23))
            assert is_free_baz(qm1) and not is_pc_baz(qm1)

            q2 = candidate_q(E_RUNNING, 2)
            q5 = candidate_q(E_RUNNING, 5)
            assert q2 == BazParams((9, 5, 5, -1, 17))
            assert q5 == BazParams((15, 11, 11, -7, 11))
            assert is_free_baz(q2) and is_pc_baz(q2)
            assert is_free_baz(q5) and is_pc_baz(q5)

            assert h6_order(qm1) == 503
            assert h6_order(q2) == 1541
            assert h6_order(q5) == 2579

        reproduce()  # warm up bytecode and caches before timing
        started = time.perf_counter()
        reproduce()
        assert time.perf_counter() - started < 0.010

    _report(1, "running example: candidates, singularity, curvature, |H6|", body)


def test_criterion_02_stored_counterexample_table():
    def body():
        verify_known_counterexamples()  # warm up
        started = time.perf_counter()
        rows = verify_known_counterexamples()
        elapsed = time.perf_counter() - started
        assert len(rows) == 9
        assert elapsed < 0.100

    _report(2, "all nine stored counterexamples verified (freeness, pc, window, singularity)", body)


def test_criterion_03_certified_shifts_at_scale():
    def body():
        rng = random.Random(4001)
        started = time.perf_counter()
        for _ in range(10_000):
            e = random_free_esch(rng, -50, 50, nonzero_diffs=True)
            for mu in (1, 2, 3):
                for sign in (1, -1):
                    assert nonsingular_shift(e, certified_shift(e, mu, sign)), (e, mu, sign)
        assert time.perf_counter() - started < 60.0

    _report(3, "10^4 free samples: every certified shift (mu<=3, both signs) is non-singular, <60s", body)


def test_criterion_04_sigma3_closed_form_and_collisions():
    def body():
        rng = random.Random(4002)
        for _ in range(10_000):
            e = random_esch(rng, -30, 30)
            c = rng.randint(-50, 50)
            six = tuple(2 * (x + c) + 1 for x in e.a) + tuple(-2 * (x + c) - 1 for x in e.b)
            assert sigma3_shift_closed_form(e, c) == elementary_symmetric(3, six)
        for _ in range(500):
            e = random_esch(rng, -12, 12)
            locus = collision_locus(e)
            values = {c: abs(sigma3_shift_closed_form(e, c)) for c in range(-20, 21)}
            for c in range(-20, 21):
                for d in range(c + 1, 21):
                    predicted = locus is None or Fraction(c + d) == locus
                    assert (values[c] == values[d]) == predicted, (e, c, d)

    _report(4, "sigma_3 closed form == direct expansion (10^4); collision locus == brute force", body)


def test_criterion_05_freeness_oracle_equivalences():
    def body():
        rng = random.Random(4003)
        for _ in range(10_000):
            e = random_esch(rng, -60, 60)
            assert is_free(e) == is_free_oracle(e), e
        for _ in range(10_000):
            q = random_odd_baz(rng, -49, 49)
            assert is_free_baz(q) == is_free_baz_oracle(q), q

    _report(5, "gcd freeness == divisor-enumeration oracle; 15-pair == 120-permutation oracle (10^4 each)", body)


def test_criterion_06_nonsingularity_equals_submanifold_freeness():
    def body():
        rng = random.Random(4004)
        for _ in range(10_000):
            q = random_odd_baz(rng, -49, 49)
            assert is_free_baz(q) == all(is_free(e) for _, e in submanifolds(q)), q

    _report(6, "5-tuple freeness <=> all ten embedded parameter sets free (10^4 odd samples)", body)


def test_criterion_07_cohomogeneity_one_family():
    def body():
        labelled = verify_cohomogeneity_one(100)
        assert [p for p, _ in labelled] == list(range(1, 101))
        for p, cert in labelled:
            assert cert.baz == BazParams((2 * p - 1, 1, 1, 1, 1))
            assert cert.baz_free and cert.baz_pc
        # the note reaches window reports for the family
        report = window_scan(EschParams((5, 1, 1), (7, 0, 0)))
        assert any("-1 <= c <= 0" in n and "{-1}" in n for n in report.notes)

    _report(7, "cohomogeneity-one family p<=100: shift -1 gives (2p-1,1,1,1,1), free+pc, note emitted", body)


def test_criterion_08_infinite_families():
    def body():
        labelled = verify_infinite_families(100)
        assert len(labelled) == 202
        table = verify_known_counterexamples()
        assert labelled[0] == ("A", 0, table[0])
        assert labelled[101] == ("B", 0, table[8])

    _report(8, "families A and B counterexamples for k<=100; k=0 matches stored rows 1 and 9", body)


def test_criterion_09_structural_properties():
    def body():
        rng = random.Random(4005)
        # |H4| odd for free parameters
        for _ in range(3000):
            assert h4_order(random_free_esch(rng, -40, 40)) % 2 == 1
        # sigma_3 of every odd 6-tuple divisible by 8
        for _ in range(3000):
            q = random_odd_baz(rng)
            assert elementary_symmetric(3, q.q + (-q.qsum,)) % 8 == 0
        # invariance under shifts and the documented permutations
        for _ in range(500):
            e = random_esch(rng, -25, 25)
            c = rng.randint(-40, 40)
            s = shift(e, c)
            for pred in (is_free, is_pc_metric, h4_order, kernel_order):
                assert pred(s) == pred(e)
            pa = list(range(3))
            pb = list(range(3))
            rng.shuffle(pa)
            rng.shuffle(pb)
            g = EschParams(tuple(e.a[i] for i in pa), tuple(e.b[i] for i in pb))
            assert is_free(g) == is_free(e)
            assert h4_order(g) == h4_order(e)
            swapped23 = EschParams(e.a, (e.b[0], e.b[2], e.b[1]))
            assert is_pc_metric(swapped23) == is_pc_metric(e)
        for _ in range(500):
            q = random_odd_baz(rng)
            s5 = list(range(5))
            rng.shuffle(s5)
            p = BazParams(tuple(q.q[i] for i in s5))
            assert is_free_baz(p) == is_free_baz(q)
            assert is_pc_baz(p) == is_pc_baz(q)
            assert h6_order(p) == h6_order(q)
        # duality preserves |H6| on 10^3 non-singular certificates
        checked = 0
        while checked < 1000:
            e = random_free_esch(rng, -25, 25)
            c = rng.randint(-20, 20)
            if not nonsingular_shift(e, c):
                continue
            checked += 1
            swapped, dual = dual_embedding(e, c)
            assert is_free_baz(dual)
            assert h6_order(dual) == h6_order(candidate_q(e, c))

    _report(9, "h4 odd; sigma_3 div by 8; shift/permutation invariance; duality preserves |H6| (10^3)", body)


def test_criterion_10_box_scan_determinism():
    def body():
        started = time.perf_counter()
        outcomes = [scan_box(60, 1000) for _ in range(2)]
        elapsed = time.perf_counter() - started
        assert outcomes[0] == outcomes[1]
        stats, rows = outcomes[0]
        target = EschParams((39, 0, 0), (55, -3, -13))
        assert any(row.esch == target for row in rows)
        assert stats.total == stats.embeddable + stats.counterexamples
        assert elapsed < 300.0

    _report(10, "scan_box(60): finds (39,0,0),(55,-3,-13); identical output on a repeated run; <5min", body)


def test_acceptance_table_data_is_verbatim():
    # guard: the stored table is data, not derived; freeze its literal values
    expected = (
        ((39, 0, 0), (55, -3, -13), 0, 7),
        ((77, 2, 0), (93, -3, -11), -1, 6),
        ((171, 2, 0), (187, -3, -11), -1, 6),
        ((225, 4, 0), (247, -5, -13), -2, 8),
        ((281, 3, 0), (294, -2, -8), -1, 4),
        ((309, 6, 0), (323, -3, -5), -3, 3),
        ((664, 2, 0), (678, -3, -9), -1, 5),
        ((827, 4, 0), (843, -3, -9), -2, 5),
        ((12909, 0, 0), (12925, -3, -13), 0, 7),
    )
    assert tuple(
        (a, b, w.start, w[-1]) for a, b, w in KNOWN_COUNTEREXAMPLES
    ) == expected
