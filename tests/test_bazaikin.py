import random
from itertools import permutations

import pytest

from conftest import random_free_esch, random_odd_baz
from oracles import h6_order_oracle, is_free_baz_oracle, is_pc_baz_oracle
from eschbaz import (
    BazParams,
    EschParams,
    candidate_q,
    canonicalize,
    certified_shift,
    freeness_failures,
    h6_order,
    is_free,
    is_free_baz,
    is_pc_baz,
    is_pc_metric,
    submanifolds,
)
from eschbaz.arith import elementary_symmetric


def test_is_free_baz_examples():
    assert not is_free_baz(BazParams((5, 1, 1, 3, 21)))
    assert is_free_baz(BazParams((3, -1, -1, 5, 23)))
    assert is_free_baz(BazParams((1, 1, 1, 1, 1)))


def test_offending_pairs():
    fails = freeness_failures(BazParams((5, 1, 1, 3, 21)))
    assert ((1, 2), (4, 5), 6) in fails
    assert freeness_failures(BazParams((1, 1, 1, 1, 1))) == []


def test_even_entries_block_freeness():
    assert not is_free_baz(BazParams((2, 1, 1, 1, 1)))
    assert not is_free_baz_oracle(BazParams((2, 1, 1, 1, 1)))


def test_oracle_examples():
    assert not is_free_baz_oracle(BazParams((5, 1, 1, 3, 21)))
    assert is_free_baz_oracle(BazParams((1, 1, 1, 1, 1)))
    assert is_free_baz_oracle(BazParams((9, 5, 5, -1, 17)))


def test_oracle_agreement_bulk():
    rng = random.Random(201)
    for _ in range(10_000):
        q = random_odd_baz(rng)
        assert is_free_baz(q) == is_free_baz_oracle(q), q


def test_is_pc_baz_examples():
    assert is_pc_baz(BazParams((9, 5, 5, -1, 17)))
    assert not is_pc_baz(BazParams((3, -1, -1, 5, 23)))
    assert is_pc_baz(BazParams((-1, -1, -1, -1, -1)))


def test_baz_params_need_five_entries():
    with pytest.raises(ValueError) as info:
        BazParams((1, 2, 3))
    assert str(info.value) == "expected a 5-tuple, got (1, 2, 3)"


def test_h6_order_examples():
    assert h6_order(BazParams((3, -1, -1, 5, 23))) == 503
    assert h6_order(BazParams((9, 5, 5, -1, 17))) == 1541
    assert h6_order(BazParams((15, 11, 11, -7, 11))) == 2579


def test_h6_order_rejects_even():
    with pytest.raises(ValueError):
        h6_order(BazParams((2, 1, 1, 1, 1)))


def test_sigma3_of_odd_six_tuple_divisible_by_8():
    rng = random.Random(211)
    for _ in range(5000):
        q = random_odd_baz(rng)
        s3 = elementary_symmetric(3, q.q + (-q.qsum,))
        assert s3 % 8 == 0
        h6_order(q)  # must not raise the internal invariant


def test_h6_negation_symmetry():
    rng = random.Random(223)
    for _ in range(2000):
        q = random_odd_baz(rng)
        negated = BazParams(tuple(-x for x in q.q))
        assert h6_order(negated) == h6_order(q)


def test_permutation_invariance_all_120():
    rng = random.Random(227)
    for _ in range(60):
        q = random_odd_baz(rng, -19, 19)
        free, pc, h6 = is_free_baz(q), is_pc_baz(q), h6_order(q)
        for s in permutations(range(5)):
            p = BazParams(tuple(q.q[i] for i in s))
            assert is_free_baz(p) == free
            assert is_pc_baz(p) == pc
            assert h6_order(p) == h6


# ---------------------------------------------------------------------------
# straight-line predicates against their generic oracles, at three magnitudes


def _assert_matches_oracles(q):
    assert is_pc_baz(q) == is_pc_baz_oracle(q), q
    assert h6_order(q) == h6_order_oracle(q), q
    assert is_free_baz(q) == (q.all_odd() and not freeness_failures(q)), q


def test_predicates_match_oracles_on_small_tuples():
    rng = random.Random(241)
    pc_seen = free_seen = 0
    for _ in range(5000):
        q = random_odd_baz(rng)
        _assert_matches_oracles(q)
        pc_seen += is_pc_baz(q)
        free_seen += is_free_baz(q)
    assert pc_seen and free_seen
    for _ in range(2000):
        q = BazParams(tuple(rng.randint(-49, 49) for _ in range(5)))
        assert is_pc_baz(q) == is_pc_baz_oracle(q), q
        assert is_free_baz(q) == (q.all_odd() and not freeness_failures(q)), q


def test_predicates_match_oracles_at_certified_shifts():
    rng = random.Random(251)
    for _ in range(40):
        e = random_free_esch(rng, -50, 50, nonzero_diffs=True)
        for mu in range(1, 5):
            for sign in (1, -1):
                q = candidate_q(e, certified_shift(e, mu, sign))
                assert is_free_baz(q) and is_free_baz_oracle(q), q
                _assert_matches_oracles(q)


def test_predicates_match_oracles_past_the_digit_limit():
    rng = random.Random(257)
    bound = 10**4400
    pc_outcomes = set()
    for _ in range(200):
        signs = rng.choice(((1,) * 5, (-1,) * 5, tuple(rng.choice((1, -1)) for _ in range(5))))
        q = BazParams(tuple(sign * (2 * rng.randrange(bound) + 1) for sign in signs))
        _assert_matches_oracles(q)
        pc_outcomes.add(is_pc_baz(q))
    assert pc_outcomes == {True, False}
    e = EschParams((2, 0, 0), (15, -2, -11))
    for sign in (1, -1):
        q = candidate_q(e, certified_shift(e, 640, sign))
        assert min(abs(x) for x in q.q) > 10**4300
        assert is_free_baz(q) and is_free_baz_oracle(q)
        _assert_matches_oracles(q)


# ---------------------------------------------------------------------------
# submanifolds


def test_submanifolds_examples():
    entries = submanifolds(BazParams((1, 1, 1, 1, 1)))
    assert len(entries) == 10
    target = canonicalize(entries[0][1])
    assert target.a == (0, 0, 0) and target.b == (2, -1, -1)
    assert all(canonicalize(e) == target for _, e in entries)

    by_pair = dict(submanifolds(BazParams((5, 1, 1, 3, 21))))
    assert by_pair[(4, 5)].a == (2, 0, 0) and by_pair[(4, 5)].b == (15, -2, -11)

    by_pair = dict(submanifolds(BazParams((3, -1, -1, 5, 23))))
    assert by_pair[(4, 5)].a == (1, -1, -1) and by_pair[(4, 5)].b == (14, -3, -12)


def test_submanifolds_rejects_even():
    with pytest.raises(ValueError):
        submanifolds(BazParams((2, 1, 1, 1, 1)))


def test_submanifolds_sums_balance():
    rng = random.Random(229)
    for _ in range(500):
        q = random_odd_baz(rng)
        for _, e in submanifolds(q):
            assert sum(e.a) == sum(e.b)  # EschParams validates, but be explicit


def test_nonsingularity_equivalence_with_submanifolds():
    rng = random.Random(233)
    for _ in range(10_000):
        q = random_odd_baz(rng)
        all_free = all(is_free(e) for _, e in submanifolds(q))
        assert is_free_baz(q) == all_free, q


def test_pc_forward_direction_and_converse_report():
    # forward: a positively curved 5-tuple makes all ten submanifolds
    # positively curved with the labeling as produced.  The converse is not
    # asserted; violations, if any, are counted and surfaced for inspection.
    rng = random.Random(239)
    converse_violations = []
    pc_seen = 0
    for _ in range(10_000):
        q = random_odd_baz(rng)
        all_pc = all(is_pc_metric(e) for _, e in submanifolds(q))
        if is_pc_baz(q):
            pc_seen += 1
            assert all_pc, q
        elif all_pc:
            converse_violations.append(q)
    assert pc_seen > 0  # the sample actually exercised the forward direction
    print(f"\npc 5-tuples seen: {pc_seen}; converse violations: {len(converse_violations)}"
          + (f" e.g. {converse_violations[0].q}" if converse_violations else ""))
