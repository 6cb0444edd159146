"""Cyclotomic minimal polynomials and the trace pairings built from them.

Power sums of the roots come from the coefficient recursion, so the Gram
matrices here are exact integers. Small fields with published
discriminants (Q(sqrt 2), Q(sqrt 3)) and a factored cubic with hand-computed
power sums serve as independent oracles.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from wittcalc import (
    InseparablePolynomial,
    InvalidEntry,
    MonicIntPoly,
    Q,
    QForm,
    a_lattice_gram,
    cyclotomic_poly,
    diagonalize,
    invariants,
    perp,
    real_cyclotomic_minpoly,
    serre_w2_check,
    trace_form_Q4p,
    trace_gram,
    unit_form,
    verify_Tp,
    verify_bayer_suarez,
    witt_equal,
)
from wittcalc.qpoly import add, mul, ppow, scale


def _det(gram) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        a, b = n, k
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


# ------------------------------------------------------------ cyclotomic


def test_cyclotomic_small_cases() -> None:
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_105_has_coefficient_minus_two() -> None:
    # first index with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_poly(105)


def test_cyclotomic_matches_sympy() -> None:
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 201):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in expected), n


def test_cyclotomic_product_over_divisors() -> None:
    # prod over d | n of Phi_d = x^n - 1
    for n in (6, 12, 30):
        parts = [cyclotomic_poly(d) for d in range(1, n + 1) if n % d == 0]
        expected = tuple([-1] + [0] * (n - 1) + [1])
        result: tuple = (1,)
        for part in parts:
            result = mul(result, part)
        assert result == expected


def test_real_minpoly_small_cases() -> None:
    assert real_cyclotomic_minpoly(5).coefficients == (-1, 1, 1)
    assert real_cyclotomic_minpoly(8).coefficients == (-2, 0, 1)
    assert real_cyclotomic_minpoly(12).coefficients == (-3, 0, 1)
    assert real_cyclotomic_minpoly(20).coefficients == (5, 0, -5, 0, 1)


@pytest.mark.parametrize("n", list(range(3, 201)))
def test_real_minpoly_degree_is_half_phi(n: int) -> None:
    assert len(real_cyclotomic_minpoly(n).coefficients) - 1 == _euler_phi(n) // 2


@pytest.mark.parametrize("n", [3, 5, 7, 8, 9, 12, 15, 16, 20, 21, 28, 36, 60])
def test_real_minpoly_recovers_cyclotomic(n: int) -> None:
    # with d = phi(n)/2 and P the minimal polynomial of the real generator,
    # x^d * P(x + 1/x) must equal Phi_n
    coeffs = real_cyclotomic_minpoly(n).coefficients
    d = len(coeffs) - 1
    acc: tuple = ()
    for k, a in enumerate(coeffs):
        term = mul(ppow((0, 1), d - k), ppow((1, 0, 1), k))
        acc = add(acc, scale(term, a))
    assert acc == cyclotomic_poly(n)


# ------------------------------------------------------------ trace gram


def test_trace_gram_of_factored_cubic() -> None:
    # (x-1)(x-2)(x-3): power sums p_k = 1 + 2^k + 3^k
    f = MonicIntPoly((-6, 11, -6, 1))
    assert trace_gram(f) == ((3, 6, 14), (6, 14, 36), (14, 36, 98))


def test_trace_gram_discriminants() -> None:
    assert _det(trace_gram(real_cyclotomic_minpoly(8))) == 8
    assert _det(trace_gram(real_cyclotomic_minpoly(12))) == 12


def test_monic_poly_rejects_inseparable() -> None:
    with pytest.raises(InseparablePolynomial):
        MonicIntPoly((0, 0, 1))  # x^2
    with pytest.raises(InseparablePolynomial):
        MonicIntPoly((1, 2, 1))  # (x+1)^2


def test_monic_poly_rejects_nonmonic_and_constant() -> None:
    with pytest.raises(InvalidEntry):
        MonicIntPoly((1, 2))
    with pytest.raises(InvalidEntry):
        MonicIntPoly((5,))


# ------------------------------------------------------------ the forms


def test_trace_forms_of_real_4p_fields() -> None:
    assert trace_form_Q4p(3).entries == (2, 6)
    assert trace_form_Q4p(5).entries == (1, 5, 10, 10)
    assert trace_form_Q4p(7).entries == (6, 7, 14, 14, 14, 21)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_q4p_is_totally_positive(p: int) -> None:
    inv = invariants(trace_form_Q4p(p))
    assert inv.signature == inv.rank == p - 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_verify_Tp(p: int) -> None:
    assert verify_Tp(p)
    # the same statement, assembled by hand
    assert witt_equal(perp(QForm.make(Q, [p]), trace_form_Q4p(p)), unit_form(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_bayer_suarez(p: int) -> None:
    assert verify_bayer_suarez(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_two_routes_are_outcome_consistent(p: int) -> None:
    assert verify_Tp(p) == verify_bayer_suarez(p)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_serre_shape_of_odd_cyclotomic_trace_form(p: int) -> None:
    assert serre_w2_check(p)


@pytest.mark.parametrize("check", [verify_Tp, serre_w2_check, verify_bayer_suarez])
def test_classical_identities_at_p_101(check) -> None:
    assert check(101)


def test_a_lattice_grams() -> None:
    # a_lattice_gram(n) is the Gram matrix of A_(n-1), size (n-1) x (n-1)
    assert a_lattice_gram(3) == ((2, -1), (-1, 2))
    assert a_lattice_gram(5) == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )
    # det A_(n-1) = n
    for n in range(2, 10):
        assert _det(a_lattice_gram(n)) == n


def test_a2_lattice_diagonalizes_to_2_6() -> None:
    assert diagonalize(a_lattice_gram(3)).entries == (2, 6)
