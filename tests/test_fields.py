"""Integer factorization checked against sympy's factorint.

Inputs straddle the trial-division bound (2^10) and the bound used
before (2^20), so every path of `factorize` is hit: trial division only,
trial division then a prime cofactor, and rho on semiprimes and on prime
powers.  The oracle skips where sympy is not installed.
"""

from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wittcalc import fields
from wittcalc.fields import factorize

sympy = pytest.importorskip("sympy")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _prime(rng: random.Random, lo_bits: int, hi_bits: int) -> int:
    return int(sympy.nextprime(rng.randrange(2**lo_bits, 2**hi_bits)))


def _expected(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((int(p), int(e)) for p, e in sympy.factorint(n).items()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_products_across_the_trial_bounds(seed: int) -> None:
    rng = random.Random(seed)
    n = 1
    for _ in range(rng.randint(1, 4)):
        lo = rng.choice((9, 19))
        n *= _prime(rng, lo, lo + 2)
    assert factorize(n) == _expected(n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_prime_powers_above_the_trial_bound(seed: int) -> None:
    rng = random.Random(seed)
    n = _prime(rng, 10, 24) ** rng.randint(1, 3) * rng.randint(1, 2**10)
    assert factorize(n) == _expected(n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds)
def test_semiprimes_of_40_to_64_bits(seed: int) -> None:
    rng = random.Random(seed)
    bits = rng.randint(40, 64)
    n = _prime(rng, bits // 2 - 1, bits // 2) * _prime(rng, bits - bits // 2 - 1, bits - bits // 2)
    assert factorize(n) == _expected(n)


def test_rho_replays_a_batch_that_overshoots(monkeypatch) -> None:
    # both cycles of 1031 * 1039 close inside rho's first gcd batch, so its
    # gcd is n and the batch is replayed one gcd at a time
    n = 1031 * 1039
    seen: list[int] = []

    def spy(a: int, b: int) -> int:
        seen.append(gcd(a, b))
        return seen[-1]

    monkeypatch.setattr(fields, "_gcd", spy)
    assert fields._pollard_rho(n) in (1031, 1039)
    assert n in seen
