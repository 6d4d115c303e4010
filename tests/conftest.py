"""Shared random samplers for the test suite, and a counter of P computations.

Everything takes an explicit random.Random so sample sets are reproducible;
seeds are fixed in the tests themselves.
"""

from __future__ import annotations

import random

import pytest

from eschbaz import BazParams, EschParams, embedding, is_free, is_pc_metric


@pytest.fixture
def prime_product_calls(monkeypatch) -> list[EschParams]:
    """The spaces whose P ``embedding._prime_product`` computes, in call order, from a clean record."""
    calls = []
    uncached = embedding._prime_product

    def counted(e, pair_sums):
        calls.append(e)
        return uncached(e, pair_sums)

    monkeypatch.setattr(embedding, "_prime_product", counted)
    monkeypatch.setattr(embedding, "_walked", (None, None, None))
    return calls


def random_esch(rng: random.Random, lo: int = -60, hi: int = 60) -> EschParams:
    """Uniform-ish parameters with balanced sums and all entries in [lo, hi]."""
    while True:
        a = tuple(rng.randint(lo, hi) for _ in range(3))
        b1 = rng.randint(lo, hi)
        b2 = rng.randint(lo, hi)
        b3 = sum(a) - b1 - b2
        if lo <= b3 <= hi:
            return EschParams(a, (b1, b2, b3))


def random_free_esch(
    rng: random.Random, lo: int = -50, hi: int = 50, nonzero_diffs: bool = False
) -> EschParams:
    """Free parameters; optionally with all nine differences a_k - b_l nonzero.

    The nonzero-difference restriction is the implicit domain of the
    guaranteed-shift construction (free parameters with a vanishing
    difference exist but admit at most two non-singular shifts).
    """
    while True:
        e = random_esch(rng, lo, hi)
        if not is_free(e):
            continue
        if nonzero_diffs and any(ak == bl for ak in e.a for bl in e.b):
            continue
        return e


def random_pc_esch(rng: random.Random, lo: int = -50, hi: int = 50) -> EschParams:
    while True:
        e = random_esch(rng, lo, hi)
        if is_pc_metric(e):
            return e


def random_odd_baz(rng: random.Random, lo: int = -49, hi: int = 49) -> BazParams:
    return BazParams(tuple(rng.randrange(lo, hi + 1, 2) for _ in range(5)))
