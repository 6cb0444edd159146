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
    C,
    CharacteristicConstraint,
    DetTwist,
    FormSyntaxError,
    Fp,
    InvalidEntry,
    GWClass,
    Gen,
    Q,
    R,
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


# ----------------------------------------------------- refusal contract


def test_rank_of_refused_expressions() -> None:
    # rank is structural: it answers even where both classes refuse
    assert rank(Tensor(Sym(3, Gen(2)), Gen(2))) == 8
    assert rank(Sym(1, Sym(2, Gen(3)))) == 2


@pytest.mark.parametrize("cls", [euler, pontryagin_total])
def test_refusal_precedence(cls) -> None:
    # a characteristic constraint outranks an earlier unsupported tensor
    expr = parse_bundle("Sym(2,E1) (x) E1 (+) Sym(3,E2)")
    with pytest.raises(CharacteristicConstraint) as info:
        cls(expr, Fp(3))
    assert str(info.value) == "Sym^3 needs the characteristic prime to 6"
    # a non-expression node outranks every other refusal
    with pytest.raises(InvalidEntry, match="not a bundle expression"):
        cls(Sum((Sym(3, Gen(1)), 5)), Fp(3))
    # the outermost unsupported node speaks first
    with pytest.raises(UnsupportedTensor) as info:
        cls(Tensor(Sym(2, Sum((Gen(1), Gen(2)))), Gen(1)))
    assert str(info.value) == "tensor products are only implemented for two generators"


def test_rank_of_a_non_expression_under_sym_is_refused() -> None:
    # rank walks a Sym's base too, so the fold refuses what euler and
    # pontryagin_total refuse
    with pytest.raises(InvalidEntry, match="not a bundle expression: 5"):
        rank(Sym(2, 5))


def test_rank_does_not_build_sym_roots() -> None:
    start = time.perf_counter()
    assert rank(Sym(10**8, Gen(1))) == 10**8 + 1
    assert time.perf_counter() - start < 1.0


def test_euler_of_an_even_sym_stops_at_its_zero_root() -> None:
    # the roots 40, 38, ... would build 40!! unary GW entries before 0
    start = time.perf_counter()
    assert euler(Sym(40, Gen(1))).is_zero
    assert euler(parse_bundle("Sym(40,E1) (+) E2")).is_zero
    assert euler(parse_bundle("E2 (+) det-(Sym(40,E1))"), Fp(7), "GW").is_zero
    assert time.perf_counter() - start < 1.0


def test_det_minus_of_a_rank_zero_expression_negates_one() -> None:
    expr = DetTwist(-1, Sum(()))
    assert str(euler(expr)) == "-1"
    assert str(pontryagin_total(expr)) == "1"
    assert str(euler(DetTwist(1, Sum(())))) == "1"


@pytest.mark.parametrize("cls", [euler, pontryagin_total])
def test_bad_mode_outranks_unsupported_tensor(cls) -> None:
    with pytest.raises(InvalidEntry, match="coefficient mode"):
        cls(Sym(2, Sum((Gen(1), Gen(2)))), Q, "X")


def test_square_of_a_generator_splits_into_2e_and_zero() -> None:
    expr = parse_bundle("E1 (x) E1")
    assert str(euler(expr, Fp(5))) == "0"
    assert str(pontryagin_total(expr, Fp(5))) == "1"
    assert str(pontryagin_total(expr)) == "1 + 4*e1^2"


# ------------------------------------------------------ W-mode drop points


def test_witt_zero_coefficients_drop_over_C() -> None:
    # 2 is Witt-zero over C
    assert str(pontryagin_total(parse_bundle("E1 (x) E2"), C)) == "1 + e1^4 + e2^4"


def test_no_drop_over_F7() -> None:
    # W(F_7) holds Z/4, so 2 survives
    assert (
        str(pontryagin_total(parse_bundle("E1 (x) E2"), Fp(7)))
        == "1 + 2*e1^2 + 2*e2^2 + e1^4 - 2*e1^2*e2^2 + e2^4"
    )


def test_drops_happen_after_every_product_over_F13() -> None:
    # (1 + 25e2^2)(1 + 9e2^2) has the Witt-zero term 34*e2^2, dropped
    # before the last factor (1 + e2^2); dropping once at the end of an
    # integer product would print 35*e2^2 and 259*e2^4, as GW mode does
    expr = parse_bundle("det-(E1) (+) Sym(5,E2)")
    assert str(pontryagin_total(expr, Fp(13))) == (
        "1 + e1^2 + e2^2 + e1^2*e2^2 + 225*e2^4 + 225*e1^2*e2^4"
        " + 225*e2^6 + 225*e1^2*e2^6"
    )
    assert str(pontryagin_total(expr, Fp(13), "GW")) == (
        "1 + e1^2 + 35*e2^2 + 35*e1^2*e2^2 + 259*e2^4 + 259*e1^2*e2^4"
        " + 225*e2^6 + 225*e1^2*e2^6"
    )


# ------------------------------------------- differential against walkers
#
# A test-only copy of the per-node closed formulas that euler and
# pontryagin_total used before the splitting-principle fold: one walk
# for the labels, one for the characteristic and one per class.


def _ref_labels(expr: BundleExpr) -> tuple[int, ...]:
    out: set[int] = set()

    def walk(node: BundleExpr) -> None:
        if isinstance(node, Gen):
            out.add(node.index)
        elif isinstance(node, Sum):
            for p in node.parts:
                walk(p)
        elif isinstance(node, Tensor):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Sym, DetTwist)):
            walk(node.base)
        else:
            raise InvalidEntry(f"not a bundle expression: {node!r}")

    walk(expr)
    return tuple(sorted(out))


def _ref_check_characteristic(expr: BundleExpr, field) -> None:
    ell = field.characteristic

    def walk(node: BundleExpr) -> None:
        if isinstance(node, Sym):
            if ell and (2 * node.power) % ell == 0:
                raise CharacteristicConstraint(
                    f"Sym^{node.power} needs the characteristic prime to "
                    f"{2 * node.power}"
                )
            walk(node.base)
        elif isinstance(node, Sum):
            for p in node.parts:
                walk(p)
        elif isinstance(node, Tensor):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, DetTwist):
            walk(node.base)

    walk(expr)


def _ref_gens(node: BundleExpr, message: str) -> tuple[int, ...]:
    # the generator indices of a supported Sym or Tensor node
    children = (node.base,) if isinstance(node, Sym) else (node.left, node.right)
    if not all(isinstance(c, Gen) for c in children):
        raise UnsupportedTensor(message)
    return tuple(c.index for c in children)


_SYM_MSG = "Sym is only implemented on a generator bundle"
_TENSOR_MSG = "tensor products are only implemented for two generators"


def _ref_euler(expr: BundleExpr, field, mode: str) -> WittPoly:
    gens = _ref_labels(expr)
    _ref_check_characteristic(expr, field)

    def gen(i: int) -> WittPoly:
        return WittPoly.gen(i, gens, field, mode)

    def ev(node: BundleExpr) -> WittPoly:
        if isinstance(node, Gen):
            return gen(node.index)
        if isinstance(node, Sum):
            out = WittPoly.constant(1, gens, field, mode)
            for p in node.parts:
                out = out * ev(p)
            return out
        if isinstance(node, Sym):
            (i,) = _ref_gens(node, _SYM_MSG)
            m = node.power
            if m % 2 == 0:
                return WittPoly(field, gens, {}, mode)
            out = WittPoly.constant(double_factorial(m), gens, field, mode)
            for _ in range((m + 1) // 2):
                out = out * gen(i)
            return out
        if isinstance(node, Tensor):
            i, k = _ref_gens(node, _TENSOR_MSG)
            return gen(i) * gen(i) - gen(k) * gen(k)
        inner = ev(node.base)
        return -inner if node.sign == -1 else inner

    return ev(expr)


def _ref_pontryagin(expr: BundleExpr, field, mode: str) -> WittPoly:
    gens = _ref_labels(expr)
    _ref_check_characteristic(expr, field)

    def gen(i: int) -> WittPoly:
        return WittPoly.gen(i, gens, field, mode)

    def ev(node: BundleExpr) -> WittPoly:
        one = WittPoly.constant(1, gens, field, mode)
        if isinstance(node, Gen):
            return one + gen(node.index) * gen(node.index)
        if isinstance(node, Sum):
            out = one
            for p in node.parts:
                out = out * ev(p)
            return out
        if isinstance(node, Sym):
            (i,) = _ref_gens(node, _SYM_MSG)
            m = node.power
            e2 = gen(i) * gen(i)
            out = one
            for j in range(m // 2 + 1):
                out = out * (one + e2.scale((m - 2 * j) ** 2))
            return out
        if isinstance(node, Tensor):
            i, k = _ref_gens(node, _TENSOR_MSG)
            sq1, sq2 = gen(i) * gen(i), gen(k) * gen(k)
            diff = sq1 - sq2
            return one + (sq1 + sq2).scale(2) + diff * diff
        return ev(node.base)

    return ev(expr)


def _random_bundle_text(rng: random.Random, depth: int) -> str:
    """Sym powers up to 5 over E1-E3, nested at most `depth` deep, with
    brackets and det+- around sums; a few Sym and (x) nodes get bases
    that the classes refuse."""
    def gen() -> str:
        return f"E{rng.randint(1, 3)}"

    def total(d: int) -> str:
        return " (+) ".join(_random_bundle_text(rng, d) for _ in range(rng.randint(2, 3)))

    kind = rng.randrange(5) if depth else 0
    if kind == 1:
        base = gen() if rng.random() < 0.9 else total(depth - 1)
        return f"Sym({rng.randint(1, 5)},{base})"
    if kind == 2:
        left = gen() if rng.random() < 0.9 else f"Sym(2,{gen()})"
        return f"{left} (x) {gen()}"
    if kind == 3:
        return f"det{rng.choice('+-')}({total(depth - 1)})"
    if kind == 4:
        return f"({total(depth - 1)})"
    return gen()


def _coefficient_bound(expr: BundleExpr) -> int:
    # bounds the unary GW coefficients of the total class, to keep the
    # products small
    if isinstance(expr, Sum):
        out = 1
        for p in expr.parts:
            out *= _coefficient_bound(p)
        return out
    if isinstance(expr, Sym):
        m = expr.power
        out = 1
        for j in range(m // 2 + 1):
            out *= 1 + (m - 2 * j) ** 2
        return out
    if isinstance(expr, DetTwist):
        return _coefficient_bound(expr.base)
    return 25 if isinstance(expr, Tensor) else 2


def _outcome(fn, *args):
    try:
        return "ok", str(fn(*args))
    except Exception as exc:  # the refusal is part of the contract
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seeds)
def test_fold_matches_the_per_node_walkers(seed: int) -> None:
    rng = random.Random(seed)
    expr = parse_bundle(_random_bundle_text(rng, 3))
    while _coefficient_bound(expr) > 2000:
        expr = parse_bundle(_random_bundle_text(rng, 3))
    for field in (Q, R, C, Fp(5), Fp(7), Fp(13)):
        for mode in ("W", "GW"):
            for new, ref in ((euler, _ref_euler), (pontryagin_total, _ref_pontryagin)):
                assert _outcome(new, expr, field, mode) == _outcome(
                    ref, expr, field, mode
                ), (expr, field, mode, new.__name__)
