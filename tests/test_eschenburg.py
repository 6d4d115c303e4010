import dataclasses
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_esch, random_free_esch, random_pc_esch
from oracles import (
    DegenerateActionError,
    decimal_by_digits,
    effectivize,
    elementary_symmetric,
    is_free_oracle,
    is_free_six_gcds,
    is_pc_metric_oracle,
)
from eschbaz import (
    BazParams,
    EschParams,
    admits_positive_curvature,
    canonicalize,
    family_cohomogeneity_one,
    family_cohomogeneity_two,
    h4_order,
    is_free,
    is_pc_metric,
    kernel_order,
    pc_normal_form,
    shift,
)


def diff_multiset(e):
    return sorted(ai - bj for ai in e.a for bj in e.b)


# ---------------------------------------------------------------------------
# construction


def test_construction_examples():
    EschParams((2, 0, 0), (15, -2, -11))
    EschParams((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match=r"sum\(a\) = 1.*sum\(b\) = 2"):
        EschParams((1, 0, 0), (1, 1, 0))


def test_construction_rejects_wrong_arity():
    with pytest.raises(ValueError):
        EschParams((1, 0), (1, 0, 0))


def test_construction_messages():
    with pytest.raises(ValueError) as info:
        EschParams((1, 0), (1, 0, 0))
    assert str(info.value) == "expected two triples, got a=(1, 0), b=(1, 0, 0)"
    with pytest.raises(ValueError) as info:
        EschParams((1, 0, 0), (1, 1, 0))
    assert str(info.value) == "parameter sums differ: sum(a) = 1, sum(b) = 2"


def test_construction_by_keyword_and_replace():
    # dataclasses.replace passes every field by keyword
    e = EschParams(a=(2, 0, 0), b=(15, -2, -11))
    assert e == EschParams((2, 0, 0), (15, -2, -11))
    assert dataclasses.replace(e, b=(14, -1, -11)) == EschParams((2, 0, 0), (14, -1, -11))
    with pytest.raises(ValueError, match="parameter sums differ"):
        dataclasses.replace(e, b=(15, -2, -12))
    q = BazParams(q=[5, 1, 1, 3, 21])
    assert q == BazParams((5, 1, 1, 3, 21)) and type(q.q) is tuple
    assert dataclasses.replace(q, q=(1, 1, 1, 1, 1)) == BazParams((1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="expected a 5-tuple"):
        dataclasses.replace(q, q=(1, 1, 1))


@pytest.mark.parametrize(("a", "b"), [
    ((2.7, 0, 0), (15, -2, -11.2)),  # truncation would balance the sums
    ((2.0, 0, 0), (15, -2, -11)),
    (("7", 0, 0), (9, -1, -1)),
])
def test_construction_rejects_non_integer_entries(a, b):
    with pytest.raises(TypeError):
        EschParams(a, b)


# ---------------------------------------------------------------------------
# freeness


def test_is_free_examples():
    assert is_free(EschParams((2, 0, 0), (15, -2, -11)))
    assert not is_free(EschParams((0, 0, 0), (0, 0, 0)))
    assert is_free(EschParams((39, 0, 0), (55, -3, -13)))


def test_is_free_oracle_examples():
    assert is_free_oracle(EschParams((2, 0, 0), (15, -2, -11)))
    assert not is_free_oracle(EschParams((0, 0, 0), (0, 0, 0)))
    assert is_free_oracle(EschParams((1, 1, 1), (3, 0, 0)))


def test_freeness_oracle_agreement_bulk():
    rng = random.Random(101)
    for _ in range(10_000):
        e = random_esch(rng, -60, 60)
        assert is_free(e) == is_free_oracle(e), e


def test_freeness_oracle_agreement_degenerate_corners():
    # zero differences everywhere they can occur
    for e in [
        EschParams((5, 0, 0), (5, 0, 0)),
        EschParams((5, 1, 0), (5, 1, 0)),
        EschParams((1, 1, 1), (1, 1, 1)),
        EschParams((2, 1, 0), (2, 0, 1)),
        EschParams((1, 0, 0), (0, 1, 0)),
    ]:
        assert is_free(e) == is_free_oracle(e), e


@pytest.mark.parametrize(("seed", "bound", "n"), [
    (1, 3, 10_000),  # most tuples have a zero difference a_i - b_j
    (2, 60, 10_000),
    (3, 10**6, 10_000),
    (4, 10**30, 10_000),
    (5, 10**5000, 250),
], ids=["up-to-3", "up-to-60", "up-to-1e6", "30-digits", "5000-digits"])
def test_three_gcd_freeness_matches_the_six_gcds(seed, bound, n):
    rng = random.Random(seed)
    free = zero_diff = 0
    for _ in range(n):
        e = random_esch(rng, -bound, bound)
        result = is_free(e)
        assert result == is_free_six_gcds(e), e
        free += result
        zero_diff += any(ai == bj for ai in e.a for bj in e.b)
    assert 0 < free < n
    if bound == 3:
        assert zero_diff > n // 2


# ---------------------------------------------------------------------------
# kernel and effectivization


def test_kernel_order_examples():
    assert kernel_order(EschParams((2, 0, 0), (15, -2, -11))) == 1
    assert kernel_order(EschParams((2, 2, 2), (6, 0, 0))) == 2
    assert kernel_order(EschParams((0, 0, 0), (0, 0, 0))) == 0


def test_effectivize_examples():
    assert effectivize(EschParams((2, 2, 2), (6, 0, 0))) == EschParams((1, 1, 1), (3, 0, 0))
    e = EschParams((2, 0, 0), (15, -2, -11))
    assert effectivize(e) == e
    assert effectivize(EschParams((5, 5, 5), (9, 3, 3))) == EschParams((2, 2, 2), (4, 1, 1))


def test_effectivize_degenerate():
    with pytest.raises(DegenerateActionError):
        effectivize(EschParams((3, 3, 3), (3, 3, 3)))


def test_kernel_at_least_two_blocks_freeness():
    rng = random.Random(11)
    seen = 0
    while seen < 200:
        e = random_esch(rng, -20, 20)
        g = kernel_order(e)
        if g >= 2:
            seen += 1
            assert not is_free(e)
            assert kernel_order(effectivize(e)) == 1


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalize_examples():
    assert canonicalize(EschParams((0, 2, 0), (15, -11, -2))) == EschParams((2, 0, 0), (15, -2, -11))
    assert canonicalize(EschParams((1, -1, -1), (14, -3, -12))) == EschParams((2, 0, 0), (15, -2, -11))
    e = EschParams((0, 0, 0), (2, -1, -1))
    assert canonicalize(e) == e


def test_canonicalize_idempotent_and_preserves_invariants():
    rng = random.Random(23)
    for _ in range(2000):
        e = random_esch(rng, -30, 30)
        c = canonicalize(e)
        assert canonicalize(c) == c
        assert diff_multiset(c) == diff_multiset(e)
        assert is_free(c) == is_free(e)
        assert admits_positive_curvature(c) == admits_positive_curvature(e)
        assert is_pc_metric(c) == is_pc_metric(e)
        assert h4_order(c) == h4_order(e)
        assert kernel_order(c) == kernel_order(e)


# ---------------------------------------------------------------------------
# invariance under the documented moves


def test_shift_invariance():
    rng = random.Random(37)
    for _ in range(1000):
        e = random_esch(rng, -30, 30)
        c = rng.randint(-100, 100)
        s = shift(e, c)
        assert is_free(s) == is_free(e)
        assert admits_positive_curvature(s) == admits_positive_curvature(e)
        assert is_pc_metric(s) == is_pc_metric(e)
        assert h4_order(s) == h4_order(e)
        assert kernel_order(s) == kernel_order(e)


def test_permutation_invariance():
    rng = random.Random(41)
    for _ in range(300):
        e = random_esch(rng, -30, 30)
        for pa in permutations(range(3)):
            for pb in permutations(range(3)):
                f = EschParams(tuple(e.a[i] for i in pa), tuple(e.b[i] for i in pb))
                assert is_free(f) == is_free(e)
                assert admits_positive_curvature(f) == admits_positive_curvature(e)
                assert h4_order(f) == h4_order(e)
        # is_pc_metric only survives a-permutations and the b2/b3 swap
        for pa in permutations(range(3)):
            f = EschParams(tuple(e.a[i] for i in pa), e.b)
            assert is_pc_metric(f) == is_pc_metric(e)
        swapped = EschParams(e.a, (e.b[0], e.b[2], e.b[1]))
        assert is_pc_metric(swapped) == is_pc_metric(e)


# ---------------------------------------------------------------------------
# curvature


def test_admits_positive_curvature_examples():
    assert admits_positive_curvature(EschParams((2, 0, 0), (15, -2, -11)))
    assert not admits_positive_curvature(EschParams((1, 1, 0), (2, 1, -1)))
    assert admits_positive_curvature(EschParams((309, 6, 0), (323, -3, -5)))


def test_is_pc_metric_examples():
    assert is_pc_metric(EschParams((2, 0, 0), (15, -2, -11)))
    assert is_pc_metric(EschParams((1, 1, 1), (-1, 2, 2)))
    assert not is_pc_metric(EschParams((1, 1, 1), (4, 4, -5)))  # mixed sides


def _edge_esch(rng, bound, scale):
    """Parameters whose b entries are mostly drawn from around min(a) or max(a).

    b2 and b3 are drawn from one end of [min(a), max(a)] and its
    neighbours, or from anywhere; b1 balances the sums.  All six entries are
    then multiplied by scale, which keeps every order relation, equalities
    included.
    """
    a = [rng.randint(-bound, bound) for _ in range(3)]
    end = rng.choice((min(a), max(a)))
    near = (end - 2, end - 1, end, end + 1, end + 2, rng.randint(-2 * bound, 2 * bound))
    b2, b3 = rng.choice(near), rng.choice(near)
    b = (sum(a) - b2 - b3, b2, b3)
    return EschParams(tuple(x * scale for x in a), tuple(x * scale for x in b))


@pytest.mark.parametrize(("seed", "bound", "scale", "n"), [
    (11, 4, 1, 20_000),
    (12, 10**6, 1, 5_000),
    (13, 6, 10**4400 + 7, 500),  # entries past the 4300-digit int/str limit
], ids=["small", "up-to-1e6", "4400-digits"])
def test_is_pc_metric_matches_its_definition(seed, bound, scale, n):
    rng = random.Random(seed)
    counts = {True: 0, False: 0}
    on_edge = 0
    for _ in range(n):
        e = _edge_esch(rng, bound, scale)
        result = is_pc_metric(e)
        assert result == is_pc_metric_oracle(e)
        counts[result] += 1
        on_edge += any(bi in (min(e.a), max(e.a)) for bi in e.b)
    assert min(counts.values()) > n // 20 and on_edge > n // 4
    for e in (random_esch(rng, -bound * scale, bound * scale) for _ in range(n)):
        assert is_pc_metric(e) == is_pc_metric_oracle(e)


@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5), st.booleans())
def test_is_pc_metric_matches_its_definition_hypothesis(entries, huge):
    a1, a2, a3, b2, b3 = entries
    scale = 10**4400 + 1 if huge else 1
    b1 = a1 + a2 + a3 - b2 - b3
    e = EschParams(tuple(x * scale for x in (a1, a2, a3)), tuple(x * scale for x in (b1, b2, b3)))
    assert is_pc_metric(e) == is_pc_metric_oracle(e)


def test_pc_normal_form_examples():
    e = EschParams((2, 0, 0), (15, -2, -11))
    assert pc_normal_form(e) == e
    # the mirrored chain gets negated back to the standard one
    assert pc_normal_form(EschParams((1, 1, 1), (-1, 2, 2))) == EschParams((0, 0, 0), (2, -1, -1))
    # canonicalization inside the normal form shifts min(a) to 0
    assert pc_normal_form(EschParams((3, 1, 1), (5, 0, 0))) == EschParams((2, 0, 0), (4, -1, -1))


def test_pc_normal_form_idempotent_and_requires_pc():
    rng = random.Random(53)
    for _ in range(500):
        e = random_pc_esch(rng, -30, 30)
        f = pc_normal_form(e)
        assert pc_normal_form(f) == f
        assert f.b[2] <= f.b[1] < f.a[2] <= f.a[1] <= f.a[0] < f.b[0]
        assert min(f.a) == 0
        assert h4_order(f) == h4_order(e)
        assert is_free(f) == is_free(e)
    not_pc = r"^a=\(1, 1, 0\) b=\(2, 1, -1\) fails the fixed-metric positive-curvature test$"
    with pytest.raises(ValueError, match=not_pc):
        pc_normal_form(EschParams((1, 1, 0), (2, 1, -1)))


# ---------------------------------------------------------------------------
# cohomology order


def test_h4_order_examples():
    assert h4_order(EschParams((2, 0, 0), (15, -2, -11))) == 173
    assert h4_order(EschParams((1, 0, 0), (1, 0, 0))) == 0
    assert h4_order(EschParams((0, 0, 0), (2, -1, -1))) == 3


@pytest.mark.parametrize(("seed", "bound", "n"), [
    (6, 3, 10_000),
    (7, 10**6, 10_000),
    (8, 10**5000, 250),
], ids=["up-to-3", "up-to-1e6", "5000-digits"])
def test_h4_order_matches_the_sigma_2_oracle(seed, bound, n):
    rng = random.Random(seed)
    degenerate = 0
    for _ in range(n):
        e = random_esch(rng, -bound, bound)
        h4 = h4_order(e)
        assert h4 == abs(elementary_symmetric(2, e.a) - elementary_symmetric(2, e.b)), e
        degenerate += h4 == 0
    if bound == 3:
        assert degenerate > 0


def test_h4_odd_for_free_parameters():
    rng = random.Random(61)
    for _ in range(3000):
        e = random_free_esch(rng, -40, 40)
        assert h4_order(e) % 2 == 1, e


# ---------------------------------------------------------------------------
# families


def test_family_cohomogeneity_one():
    assert family_cohomogeneity_one(1) == EschParams((1, 1, 1), (3, 0, 0))
    assert family_cohomogeneity_one(2) == EschParams((2, 1, 1), (4, 0, 0))
    assert is_free(family_cohomogeneity_one(1))
    for p in range(1, 1001):
        e = family_cohomogeneity_one(p)
        assert is_free(e) and is_pc_metric(e)
    with pytest.raises(ValueError):
        family_cohomogeneity_one(0)


def test_family_cohomogeneity_two():
    assert family_cohomogeneity_two("A", 0) == EschParams((39, 0, 0), (55, -3, -13))
    assert family_cohomogeneity_two("B", 0) == EschParams((12909, 0, 0), (12925, -3, -13))
    assert family_cohomogeneity_two("A", 1) == EschParams((15054, 0, 0), (15070, -3, -13))
    with pytest.raises(ValueError):
        family_cohomogeneity_two("A", -1)
    with pytest.raises(ValueError, match="^variant must be 'A' or 'B', got 'C'$"):
        family_cohomogeneity_two("C", 0)


def test_family_range_errors_write_values_past_the_int_to_str_limit():
    big = decimal_by_digits(10**5000)
    with pytest.raises(ValueError, match=f"^p must be >= 1, got -{big}$"):
        family_cohomogeneity_one(-10**5000)
    with pytest.raises(ValueError, match=f"^k must be >= 0, got -{big}$"):
        family_cohomogeneity_two("A", -10**5000)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(-100, 100))
def test_h4_shift_invariance_hypothesis(a1, a2, a3, b1, b2, c):
    b3 = a1 + a2 + a3 - b1 - b2
    e = EschParams((a1, a2, a3), (b1, b2, b3))
    assert h4_order(shift(e, c)) == h4_order(e)
