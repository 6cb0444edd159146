"""Checks for the form-valued degree of pointed rational self-maps of the
line, computed through the symmetrized resultant matrix.

The G(m, +/-) family comes from the real and imaginary parts of (t +/- i)^m;
its degrees are known in closed form and pin down every branch of the
pipeline (construction, coprimality, matrix assembly, diagonalization).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wittcalc import (
    GWClass,
    GaussianPair,
    NotCoprime,
    NotPointed,
    Q,
    QForm,
    RationalMapP1,
    a1_degree,
    as_gw,
    bezout_form,
    build_G,
    derivative_identity_check,
    diagonalize,
    gaussian_power,
    gw_equal,
    gw_mul,
    gw_neg,
    gw_scalar,
    perp,
    trace_form_Q4p,
    witt_equal,
)
from wittcalc import qpoly
from wittcalc.qpoly import deg, gcd_monic, norm

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------- construction


def test_gaussian_power_m3() -> None:
    # (t + i)^3 = (t^3 - 3t) + i(3t^2 - 1)
    gp = gaussian_power(3, 1)
    assert gp.re == (0, -3, 0, 1)
    assert gp.im == (-1, 0, 3)


def test_gaussian_power_is_multiplicative() -> None:
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            assert gaussian_power(m1, 1) * gaussian_power(m2, 1) == gaussian_power(m1 + m2, 1)


def test_build_G_matches_explicit_coefficients() -> None:
    assert build_G(3, 1) == RationalMapP1.make([0, -3, 0, 1], [-1, 0, 3])


def test_map_coefficients_are_fractions() -> None:
    f = RationalMapP1.make([0, 1], [2])
    assert f.num == (Fraction(0), Fraction(1))
    assert f.den == (Fraction(2),)


def test_rejects_shared_factor() -> None:
    # t^2 - 1 and t - 1 share the factor t - 1
    with pytest.raises(NotCoprime):
        RationalMapP1.make([-1, 0, 1], [-1, 1])


def test_rejects_unpointed_maps() -> None:
    with pytest.raises(NotPointed):
        RationalMapP1.make([1, 1], [0, 1])  # equal degrees
    with pytest.raises(NotPointed):
        RationalMapP1.make([5], [1])  # constant numerator


# --------------------------------------------------------- degree values


def test_bezout_matrix_of_G3_plus() -> None:
    expected = [
        [Fraction(3), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(8), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(3)],
    ]
    assert bezout_form(build_G(3, 1)) == expected


def test_degree_base_case() -> None:
    assert a1_degree(build_G(1, 1)) == GWClass.make(Q, [1])
    assert a1_degree(build_G(1, -1)) == GWClass.make(Q, [-1])


def test_degree_of_G2_is_pm_two_units() -> None:
    assert gw_equal(a1_degree(build_G(2, 1)), GWClass.make(Q, [1, 1]))
    assert gw_equal(a1_degree(build_G(2, -1)), GWClass.make(Q, [-1, -1]))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_degree_of_Gp_is_p_units(p: int) -> None:
    plus = a1_degree(build_G(p, 1))
    assert plus.rank == p
    assert witt_equal(plus, gw_scalar(p))
    minus = a1_degree(build_G(p, -1))
    assert minus.rank == p
    assert witt_equal(minus, gw_neg(gw_scalar(p)))


def test_degree_multiplicative_on_gaussian_family() -> None:
    for m1 in (2, 3, 5):
        for m2 in (2, 3, 5):
            combined = a1_degree(build_G(m1 * m2, 1))
            product = gw_mul(a1_degree(build_G(m1, 1)), a1_degree(build_G(m2, 1)))
            assert witt_equal(combined, product)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_degree_agrees_with_trace_form_route(p: int) -> None:
    # two independent computations of the same class: resultant matrix of
    # G(p, +) versus <p> plus the trace form of the real 4p-th cyclotomic
    # subfield
    lhs = a1_degree(build_G(p, 1))
    rhs = as_gw(perp(QForm.make(Q, [p]), trace_form_Q4p(p)))
    assert witt_equal(lhs, rhs)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_derivative_identity(p: int) -> None:
    assert derivative_identity_check(p)


# ------------------------------------------------------------ properties


def _random_pointed_map(rng: random.Random) -> RationalMapP1 | None:
    n = rng.randint(1, 5)
    num = [Fraction(rng.randint(-6, 6)) for _ in range(n)] + [Fraction(rng.randint(1, 6))]
    den = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(0, n))]
    while den and den[-1] == 0:
        den.pop()
    if deg(gcd_monic(norm(tuple(num)), norm(tuple(den)))) != 0:
        return None
    return RationalMapP1.make(num, den)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_rank_equals_numerator_degree(seed: int) -> None:
    f = _random_pointed_map(random.Random(seed))
    assume(f is not None)
    assert a1_degree(f).rank == deg(f.num)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_bezout_matrix_is_symmetric(seed: int) -> None:
    f = _random_pointed_map(random.Random(seed))
    assume(f is not None)
    m = bezout_form(f)
    assert m == [list(row) for row in zip(*m)]
    assert len(m) == deg(f.num)


# ------------------------------------------- reference Bezout matrix over Q


def _reference_bezout_form(f: RationalMapP1) -> list[list[Fraction]]:
    """The Bezout matrix by Fraction synthetic division over Q[Y]."""
    a, b = f.num, f.den
    n = f.degree
    p = []
    for i in range(n + 1):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        row = [0] * (n + 1)
        for j in range(n + 1):
            aj = a[j] if j < len(a) else 0
            bj = b[j] if j < len(b) else 0
            row[j] = Fraction(ai * bj - bi * aj)
        p.append(tuple(row))
    q: list[tuple] = [()] * n
    carry: tuple = ()
    for i in range(n, 0, -1):
        carry = qpoly.add(p[i], qpoly.mul((0, 1), carry))
        q[i - 1] = carry
    assert qpoly.add(p[0], qpoly.mul((0, 1), carry)) == ()
    return [[Fraction(q[i][k]) if k < len(q[i]) else Fraction(0) for k in range(n)] for i in range(n)]


def _rational_pointed_map(rng: random.Random) -> RationalMapP1 | None:
    def coeff() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    n = rng.randint(1, 5)
    num = [coeff() for _ in range(n)] + [Fraction(rng.randint(1, 6), rng.randint(1, 6))]
    den = [coeff() for _ in range(rng.randint(0, n - 1))] + [Fraction(rng.randint(1, 6), rng.randint(1, 6))]
    if deg(gcd_monic(norm(tuple(num)), norm(tuple(den)))) != 0:
        return None
    return RationalMapP1.make(num, den)


def _assert_same_matrix(got: list[list[Fraction]], ref: list[list[Fraction]]) -> None:
    assert got == ref
    assert all(type(x) is Fraction for row in got for x in row)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_bezout_matrix_matches_reference_on_rational_maps(seed: int) -> None:
    f = _rational_pointed_map(random.Random(seed))
    assume(f is not None)
    _assert_same_matrix(bezout_form(f), _reference_bezout_form(f))
    ref_degree = GWClass.make(Q, diagonalize(_reference_bezout_form(f), Q).entries, ())
    assert a1_degree(f) == ref_degree


@pytest.mark.parametrize("m", range(1, 25))
def test_bezout_matrix_matches_reference_on_gaussian_family(m: int) -> None:
    for sign in (1, -1):
        f = build_G(m, sign)
        _assert_same_matrix(bezout_form(f), _reference_bezout_form(f))
        ref_degree = GWClass.make(Q, diagonalize(_reference_bezout_form(f), Q).entries, ())
        assert a1_degree(f) == ref_degree
