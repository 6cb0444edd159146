"""Euler and Pontryagin classes of bundle expressions built from rank-2
generators, plus the weight-space bookkeeping that feeds them.

The closed forms under test: e(Sym^m) = m!! e^((m+1)/2) for odd m and 0
for even m, p(Sym^m) = prod_i (1 + (m-2i)^2 e^2), and for a product of two
generators e = e1^2 - e2^2 with p = 1 + 2(e1^2+e2^2) + (e1^2-e2^2)^2.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from wittcalc import (
    BundleExpr,
    CharacteristicConstraint,
    DetTwist,
    FormSyntaxError,
    Fp,
    InvalidEntry,
    GWClass,
    Gen,
    Q,
    Sum,
    Sym,
    Tensor,
    TwistedEulerPoly,
    UnsupportedTensor,
    WittPoly,
    check_sym_consistency,
    clebsch_gordan,
    decompose_sym_N,
    double_factorial,
    euler,
    euler_Otilde,
    gw_scalar,
    parse_bundle,
    pontryagin_total,
    rank,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

E1 = WittPoly.gen(1, (1,))
ONE1 = WittPoly.constant(1, (1,))


def gen_power(poly: WittPoly, k: int) -> WittPoly:
    out = WittPoly.constant(1, poly.gens, poly.field, poly.mode)
    for _ in range(k):
        out = out * poly
    return out


# --------------------------------------------------------------- bundles


def test_rank_is_structural() -> None:
    assert rank(Gen(1)) == 2
    assert rank(Sym(3, Gen(1))) == 4
    assert rank(Tensor(Gen(1), Gen(2))) == 4
    assert rank(DetTwist(-1, Sym(2, Gen(1)))) == 3
    assert rank(Sum((Gen(1), Sym(2, Gen(2))))) == 5


def test_parse_bundle_grammar() -> None:
    assert parse_bundle("E1") == Gen(1)
    assert parse_bundle("Sym(3,E1)") == Sym(3, Gen(1))
    assert parse_bundle("det-(E2)") == DetTwist(-1, Gen(2))
    assert parse_bundle("det+(E2)") == DetTwist(1, Gen(2))
    assert parse_bundle("Sym(3,E1) (+) det-(E2)") == Sum(
        (Sym(3, Gen(1)), DetTwist(-1, Gen(2)))
    )
    # (x) binds tighter than (+)
    assert parse_bundle("E1 (x) E2 (+) E1") == Sum(
        (Tensor(Gen(1), Gen(2)), Gen(1))
    )


def test_parse_bundle_rejects_garbage() -> None:
    for bad in ("", "Sym(E1)", "E1 (+)", "Sym(2,E1", "E1 E2"):
        with pytest.raises(FormSyntaxError):
            parse_bundle(bad)
    # tokenizes, but the index is out of range
    with pytest.raises(InvalidEntry):
        parse_bundle("E0")


def test_parse_bundle_caps_nesting_depth() -> None:
    assert parse_bundle("(" * 100 + "E1" + ")" * 100) == Gen(1)
    chain = parse_bundle(" (x) ".join(["E1"] * 101))  # 100 chained (x)
    assert isinstance(chain, Tensor) and chain.right == Gen(1)
    for text in (
        "(" * 101 + "E1" + ")" * 101,
        "(" * 3000 + "E1" + ")" * 3000,
        "det-(" * 3000 + "E1" + ")" * 3000,
        " (x) ".join(["E1"] * 3000),
    ):
        start = time.perf_counter()
        with pytest.raises(FormSyntaxError, match="nested deeper than 100"):
            parse_bundle(text)
        assert time.perf_counter() - start < 1.0


# --------------------------------------------------- weight-2 table rows


def test_euler_table_odd_weights() -> None:
    # odd m: +/- m times the squared generator, sign + exactly when
    # m = 1 mod 4
    assert (euler_Otilde(1).coefficient, euler_Otilde(1).generator) == (1, "pe")
    assert (euler_Otilde(3).coefficient, euler_Otilde(3).generator) == (-3, "pe")
    assert (euler_Otilde(5).coefficient, euler_Otilde(5).generator) == (5, "pe")
    assert (euler_Otilde(7).coefficient, euler_Otilde(7).generator) == (-7, "pe")
    assert (euler_Otilde(9).coefficient, euler_Otilde(9).generator) == (9, "pe")


def test_euler_table_even_weights() -> None:
    # even m: +/- m/2 times the twisted generator, sign + exactly when
    # m = 2 mod 4
    assert (euler_Otilde(2).coefficient, euler_Otilde(2).generator) == (1, "etilde")
    assert (euler_Otilde(4).coefficient, euler_Otilde(4).generator) == (-2, "etilde")
    assert (euler_Otilde(6).coefficient, euler_Otilde(6).generator) == (3, "etilde")
    assert (euler_Otilde(8).coefficient, euler_Otilde(8).generator) == (-4, "etilde")


def test_euler_table_orientation_flip_negates() -> None:
    for m in range(1, 10):
        assert euler_Otilde(m, -1).coefficient == -euler_Otilde(m).coefficient


def test_twisted_square_rewrites() -> None:
    te = TwistedEulerPoly({(0, 1): 1})
    assert (te * te).terms == {(2, 0): 4}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_twisted_algebra_is_associative(seed: int) -> None:
    rng = random.Random(seed)

    def rand_poly() -> TwistedEulerPoly:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 1))] = rng.randint(-4, 4)
        return TwistedEulerPoly(terms)

    a, b, c = rand_poly(), rand_poly(), rand_poly()
    assert ((a * b) * c).terms == (a * (b * c)).terms
    assert (a * b).terms == (b * a).terms


def test_decompose_sym_alternates_down_by_four() -> None:
    assert decompose_sym_N(1) == [(1, 1)]
    assert decompose_sym_N(2) == [(2, 1), (0, -1)]
    assert decompose_sym_N(4) == [(4, 1), (2, -1), (0, 1)]
    assert decompose_sym_N(5) == [(5, 1), (3, -1), (1, 1)]
    assert decompose_sym_N(7) == [(7, 1), (5, -1), (3, 1), (1, -1)]


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_sym_bookkeeping_consistency(m: int) -> None:
    assert check_sym_consistency(m)


# ------------------------------------------------------------- sym euler


def test_double_factorial_convention() -> None:
    # the product runs down to 0 for even input, so even values vanish
    assert [double_factorial(m) for m in range(1, 8)] == [1, 0, 3, 0, 15, 0, 105]


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
def test_euler_sym_odd(m: int) -> None:
    expected = gen_power(E1, (m + 1) // 2).scale(double_factorial(m))
    assert euler(Sym(m, Gen(1))) == expected


@pytest.mark.parametrize("m", [2, 4, 6])
def test_euler_sym_even_vanishes(m: int) -> None:
    assert euler(Sym(m, Gen(1))).is_zero


@pytest.mark.parametrize("m", list(range(1, 8)))
def test_pontryagin_sym_product_formula(m: int) -> None:
    e_sq = E1 * E1
    expected = ONE1
    for i in range(m // 2 + 1):
        expected = expected * (ONE1 + e_sq.scale((m - 2 * i) ** 2))
    assert pontryagin_total(Sym(m, Gen(1))) == expected


def test_pontryagin_of_generator_degree_four_part() -> None:
    pt = pontryagin_total(Gen(1))
    assert pt == ONE1 + E1 * E1
    assert pt.homogeneous_part(4) == euler(Gen(1)) * euler(Gen(1))


# ---------------------------------------------------------------- tensor


def test_euler_of_tensor_product() -> None:
    e1 = WittPoly.gen(1, (1, 2))
    e2 = WittPoly.gen(2, (1, 2))
    assert euler(Tensor(Gen(1), Gen(2))) == e1 * e1 - e2 * e2


def test_pontryagin_of_tensor_product() -> None:
    e1 = WittPoly.gen(1, (1, 2))
    e2 = WittPoly.gen(2, (1, 2))
    sq_sum = e1 * e1 + e2 * e2
    sq_diff = e1 * e1 - e2 * e2
    pt = pontryagin_total(Tensor(Gen(1), Gen(2)))
    assert pt.homogeneous_part(4) == sq_sum.scale(2)
    assert pt.homogeneous_part(8) == sq_diff * sq_diff
    one = WittPoly.constant(1, (1, 2))
    assert pt == one + sq_sum.scale(2) + sq_diff * sq_diff


def test_tensor_pontryagin_restrictions() -> None:
    # substitution keeps the ambient two-generator ring
    pt = pontryagin_total(Tensor(Gen(1), Gen(2)))
    one = WittPoly.constant(1, (1, 2))
    e1 = WittPoly.gen(1, (1, 2))
    sq = e1 * e1
    assert pt.substitute_zero(2) == (one + sq) * (one + sq)
    assert pt.substitute_gen(2, 1) == one + sq.scale(4)


# ------------------------------------------------------------ structural


def test_odd_rank_euler_vanishes() -> None:
    assert euler(Sym(2, Gen(1))).is_zero
    assert euler(DetTwist(-1, Sym(4, Gen(1)))).is_zero
    assert euler(Sum((Gen(1), Sym(2, Gen(2))))).is_zero


def test_determinant_twist_negates_even_rank_euler() -> None:
    assert euler(DetTwist(-1, Gen(1))) == -euler(Gen(1))
    assert euler(DetTwist(-1, Sym(3, Gen(1)))) == -euler(Sym(3, Gen(1)))
    assert pontryagin_total(DetTwist(-1, Gen(1))) == pontryagin_total(Gen(1))


def _random_piece(rng: random.Random, i: int, max_power: int) -> BundleExpr:
    kind = rng.randrange(3)
    if kind == 1:
        return Sym(rng.randint(1, max_power), Gen(i))
    if kind == 2:
        return DetTwist(rng.choice((1, -1)), Sym(rng.randint(1, max_power), Gen(i)))
    return Gen(i)


def _random_factor(rng: random.Random, max_power: int = 3) -> BundleExpr:
    # mentions both generators so the class polynomial lives in the full
    # two-generator ring and factors stay comparable
    if rng.random() < 0.25:
        return Tensor(Gen(1), Gen(2))
    return Sum((_random_piece(rng, 1, max_power), _random_piece(rng, 2, max_power)))


def test_whitney_across_distinct_generators() -> None:
    total = Sum((Gen(1), Gen(2)))
    assert euler(total) == WittPoly.gen(1, (1, 2)) * WittPoly.gen(2, (1, 2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_whitney_formula_for_euler(seed: int) -> None:
    rng = random.Random(seed)
    a = _random_factor(rng)
    b = _random_factor(rng)
    assert euler(Sum((a, b))) == euler(a) * euler(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds)
def test_whitney_formula_for_pontryagin(seed: int) -> None:
    # smaller powers here: coefficient ranks multiply under the
    # total-class product, and rank-1 entries are stored individually
    rng = random.Random(seed)
    a = _random_factor(rng, max_power=2)
    b = _random_factor(rng, max_power=2)
    assert pontryagin_total(Sum((a, b))) == pontryagin_total(a) * pontryagin_total(b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_odd_rank_law_on_random_sums(seed: int) -> None:
    rng = random.Random(seed)
    parts = tuple(_random_factor(rng) for _ in range(rng.randint(1, 3)))
    expr = Sum(parts)
    if rank(expr) % 2 == 1:
        assert euler(expr).is_zero


# ---------------------------------------------------------------- errors


def test_sym_requires_generator_base() -> None:
    with pytest.raises(UnsupportedTensor):
        euler(Sym(2, Sum((Gen(1), Gen(2)))))


def test_tensor_requires_two_generators() -> None:
    with pytest.raises(UnsupportedTensor):
        euler(Tensor(Sym(2, Gen(1)), Gen(2)))


def test_characteristic_constraint() -> None:
    with pytest.raises(CharacteristicConstraint):
        euler(Sym(3, Gen(1)), Fp(3))
    with pytest.raises(CharacteristicConstraint):
        euler(Sym(5, Gen(1)), Fp(5))
    # 7 does not divide 2*3, so this one is fine
    assert euler(Sym(3, Gen(1)), Fp(7)) == WittPoly.gen(1, (1,), Fp(7)).scale(
        gw_scalar(3, Fp(7))
    ) * WittPoly.gen(1, (1,), Fp(7))


# --------------------------------------------------------- clebsch gordan


def test_clebsch_gordan_values() -> None:
    assert clebsch_gordan(0, 4) == [4]
    assert clebsch_gordan(1, 1) == [2, 0]
    assert clebsch_gordan(2, 3) == [5, 3, 1]
    assert clebsch_gordan(3, 3) == [6, 4, 2, 0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_clebsch_gordan_rank_sum(a: int, b: int) -> None:
    assert sum(n + 1 for n in clebsch_gordan(a, b)) == (a + 1) * (b + 1)


# ------------------------------------------------------- polynomial ring


def _random_witt_poly(rng: random.Random, mode: str = "GW") -> WittPoly:
    gens = (1, 2)
    poly = WittPoly.constant(rng.randint(-3, 3), gens, Q, mode)
    for _ in range(rng.randint(0, 3)):
        term = WittPoly.constant(
            GWClass.make(
                Q,
                [rng.choice((1, 2, 3, -1)) for _ in range(rng.randint(0, 2))],
                [rng.choice((1, 2, 3, -1)) for _ in range(rng.randint(0, 2))],
            ),
            gens,
            Q,
            mode,
        )
        for _ in range(rng.randint(0, 2)):
            term = term * WittPoly.gen(rng.choice((1, 2)), gens, Q, mode)
        poly = poly + term
    return poly


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds, st.sampled_from(["W", "GW"]))
def test_witt_poly_ring_laws(seed: int, mode: str) -> None:
    rng = random.Random(seed)
    a, b, c = (_random_witt_poly(rng, mode) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == WittPoly.constant(0, a.gens, Q, mode)
    one = WittPoly.constant(1, a.gens, Q, mode)
    assert one * a == a


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds)
def test_substitution_is_a_ring_map(seed: int) -> None:
    rng = random.Random(seed)
    a = _random_witt_poly(rng)
    b = _random_witt_poly(rng)
    assert (a * b).substitute_zero(2) == a.substitute_zero(2) * b.substitute_zero(2)
    assert (a + b).substitute_gen(2, 1) == a.substitute_gen(2, 1) + b.substitute_gen(2, 1)
    assert (a * b).substitute_gen(2, 1) == a.substitute_gen(2, 1) * b.substitute_gen(2, 1)


def test_mode_controls_coefficient_vanishing() -> None:
    h = GWClass.make(Q, [1, -1])
    assert WittPoly.constant(h, (1,), Q, "W").is_zero
    assert not WittPoly.constant(h, (1,), Q, "GW").is_zero


def test_rendering() -> None:
    assert str(euler(Sym(3, Gen(1)))) == "3*e1^2"
    pt = pontryagin_total(Tensor(Gen(1), Gen(2)))
    assert str(pt) == "1 + 2*e1^2 + 2*e2^2 + e1^4 - 2*e1^2*e2^2 + e2^4"
    assert str(euler(Sym(2, Gen(1)))) == "0"
