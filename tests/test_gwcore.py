"""Exact-arithmetic checks for diagonal forms, their invariants, and the
virtual-form ring over Q, R, C, and F_p.

Fixed expected values were either computed by hand from the defining
formulas (Hilbert symbols, residues) or produced by an independent
derivation and frozen here (diagonalizations, inverses).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    congruent,
    random_form,
    random_gw,
    random_nonzero,
    random_symmetric_nondegenerate,
    random_unimodular,
)
from wittcalc import (
    C,
    DegenerateForm,
    FactorizationLimit,
    FieldMismatch,
    FormSyntaxError,
    Fp,
    GWClass,
    INF,
    InvalidEntry,
    NonSymmetric,
    NotAUnit,
    Q,
    QForm,
    R,
    as_gw,
    diagonalize,
    format_form,
    format_gw,
    format_gw_grouped,
    gw_add,
    gw_equal,
    gw_is_zero,
    gw_mul,
    gw_neg,
    gw_one,
    gw_scalar,
    gw_sub,
    gw_zero,
    hilbert_symbol,
    hyperbolic,
    hyperbolic_normal_form,
    invariants,
    invert_unit,
    is_isometric,
    parse_form,
    parse_gw,
    perp,
    second_residue,
    squarefree_part,
    unit_form,
    witt_class,
    witt_equal,
)
from wittcalc import fields, gwcore
from wittcalc.gwcore import relevant_places

nonzero_ints = st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0)
small_nonzero = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------- entries


def test_entries_reduce_to_squarefree_representatives() -> None:
    q = QForm.make(Q, [Fraction(3, 4), 8, -18, Fraction(-1, 2)])
    # 3/4 ~ 3, 8 ~ 2, -18 ~ -2, -1/2 ~ -2; sorted by |entry| with + first
    assert q.entries == (2, -2, -2, 3)


def test_entry_order_is_abs_value_then_sign() -> None:
    q = QForm.make(Q, [5, -1, 2, -3])
    assert q.entries == (-1, 2, -3, 5)


def test_zero_entry_rejected() -> None:
    with pytest.raises(InvalidEntry):
        QForm.make(Q, [1, 0])


def test_characteristic_two_rejected() -> None:
    with pytest.raises(InvalidEntry):
        Fp(2)


def test_real_and_complex_canonical_entries() -> None:
    assert QForm.make(R, [Fraction(7, 3), -9]).entries == (1, -1)
    assert QForm.make(C, [5, -2]).entries == (1, 1)


def test_fp_entries_are_one_or_smallest_nonresidue() -> None:
    # squares mod 5 are {1,4}: smallest nonresidue is 2
    assert QForm.make(Fp(5), [4, 3]).entries == (1, 2)
    # squares mod 7 are {1,2,4}: smallest nonresidue is 3
    assert QForm.make(Fp(7), [2, 5]).entries == (1, 3)


def test_fp_entry_divisible_by_p_rejected() -> None:
    with pytest.raises(InvalidEntry):
        QForm.make(Fp(5), [10])


def test_rho_failure_is_a_domain_error(monkeypatch) -> None:
    # both factors lie above the trial-division bound, so splitting needs
    # rho, and a gcd that always returns n makes every restart fail
    monkeypatch.setattr(fields, "_gcd", lambda a, n: n)
    with pytest.raises(FactorizationLimit):
        squarefree_part(1000003 * 1000033)


def test_squarefree_part_examples() -> None:
    assert squarefree_part(Fraction(3, 4)) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1


# ----------------------------------------------------------- diagonalize


def test_diagonalize_a2_gram() -> None:
    assert diagonalize([[2, -1], [-1, 2]]).entries == (2, 6)


def test_diagonalize_offdiagonal_block() -> None:
    # all-zero diagonal forces the symmetric row move; the result is the
    # hyperbolic plane
    q = diagonalize([[0, 1], [1, 0]])
    assert q.entries == (2, -2)
    assert is_isometric(q, QForm.make(Q, [1, -1]))


def test_diagonalize_rejects_nonsymmetric() -> None:
    with pytest.raises(NonSymmetric):
        diagonalize([[1, 2], [0, 1]])


def test_diagonalize_rejects_degenerate() -> None:
    with pytest.raises(DegenerateForm):
        diagonalize([[1, 1], [1, 1]])


def test_diagonalize_over_fp() -> None:
    q = diagonalize([[0, 1], [1, 0]], Fp(3))
    assert q.field == Fp(3)
    assert witt_class(q).is_zero


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_diagonalize_congruence_invariance(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    g = random_symmetric_nondegenerate(rng, n)
    p = random_unimodular(rng, n)
    assert is_isometric(diagonalize(g), diagonalize(congruent(p, g)))


# ------------------------------------------------- elimination kernel


def _reference_diagonal(gram, p: int | None = None) -> list:
    """Plain symmetric elimination, step for step as diagonalize worked
    before its fraction-free kernel: Fraction arithmetic over Q, residues
    mod p over F_p.  The raw diagonal, before canonicalization."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in gram]
    else:
        m = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in row] for row in gram]

    def red(x):
        return x if p is None else x % p

    n = len(m)
    diag = []
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i] != 0), None)
        if piv is None:
            moved = False
            for i in range(k, n):
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        for t in range(n):
                            m[i][t] = red(m[i][t] + m[j][t])
                        for t in range(n):
                            m[t][i] = red(m[t][i] + m[t][j])
                        piv = i
                        moved = True
                        break
                if moved:
                    break
            if piv is None:
                raise DegenerateForm("singular")
        if piv != k:
            m[piv], m[k] = m[k], m[piv]
            for row in m:
                row[piv], row[k] = row[k], row[piv]
        d = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / d if p is None else m[i][k] * pow(d, -1, p) % p
            if f:
                for t in range(k, n):
                    m[i][t] = red(m[i][t] - f * m[k][t])
                for t in range(k, n):
                    m[t][i] = red(m[t][i] - f * m[t][k])
        diag.append(d)
    return diag


def _kernel_diagonal(gram, p: int | None = None) -> list:
    """D_k / D_(k-1) from the kernel's leading minors, for an integer Gram."""
    minors = gwcore._eliminate([[x if p is None else x % p for x in row] for row in gram], p)
    if p is None:
        return [Fraction(d, prev) for d, prev in zip(minors, [1] + minors)]
    return [d * pow(prev, -1, p) % p for d, prev in zip(minors, [1] + minors)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateForm:
        return "degenerate"


def _random_symmetric(rng: random.Random, n: int, values, zero_diagonal: bool = False) -> list:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                m[i][j] = m[j][i] = rng.choice(values)
    return m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_kernel_matches_reference_elimination_over_q(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    if rng.random() < 0.5:
        gram = random_symmetric_nondegenerate(rng, n)
    else:
        gram = _random_symmetric(rng, n, range(-3, 4))
    ref = _outcome(_reference_diagonal, gram)
    # the same pivots give the same raw diagonal, not just the same classes
    assert _outcome(_kernel_diagonal, gram) == ref
    if ref != "degenerate":
        assert diagonalize(gram).entries == QForm.make(Q, ref).entries


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_kernel_matches_reference_on_zero_diagonal_grams(seed: int) -> None:
    # every pivot of these starts with the symmetric row-add move
    rng = random.Random(seed)
    gram = _random_symmetric(rng, rng.randint(2, 7), (-2, -1, 0, 0, 1, 2), zero_diagonal=True)
    ref = _outcome(_reference_diagonal, gram)
    assert _outcome(_kernel_diagonal, gram) == ref
    if ref != "degenerate":
        assert diagonalize(gram).entries == QForm.make(Q, ref).entries


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_kernel_matches_reference_on_fraction_grams(seed: int) -> None:
    rng = random.Random(seed)
    values = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3, 4, 6)]
    gram = _random_symmetric(rng, rng.randint(1, 6), values, zero_diagonal=rng.random() < 0.3)
    ref = _outcome(_reference_diagonal, gram)
    got = _outcome(lambda g: diagonalize(g).entries, gram)
    assert got == (ref if ref == "degenerate" else QForm.make(Q, ref).entries)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_kernel_matches_reference_over_fp(seed: int) -> None:
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7, 11, 13))
    n = rng.randint(1, 7)
    # small entries make zeros mod p, and so swaps and moves, common
    gram = _random_symmetric(rng, n, range(-p, p + 1), zero_diagonal=rng.random() < 0.3)
    ref = _outcome(_reference_diagonal, gram, p)
    assert _outcome(_kernel_diagonal, gram, p) == ref
    got = _outcome(lambda g: diagonalize(g, Fp(p)).entries, gram)
    assert got == (ref if ref == "degenerate" else QForm.make(Fp(p), ref).entries)
    # Fraction entries go through their residues
    halves = [[Fraction(x, 2) for x in row] for row in gram]
    got = _outcome(lambda g: diagonalize(g, Fp(p)).entries, halves)
    ref = _outcome(_reference_diagonal, halves, p)
    assert got == (ref if ref == "degenerate" else QForm.make(Fp(p), ref).entries)


# -------------------------------------------------------- hilbert symbol


def test_hilbert_symbol_examples() -> None:
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 7) == 1
    assert hilbert_symbol(3, 7, 7) == -1
    assert hilbert_symbol(5, 5, 5) == 1


def _places_for(*values: int) -> list:
    places: set = {INF, 2}
    for v in values:
        v = abs(v)
        for p in range(3, v + 1, 2):
            while v % p == 0:
                places.add(p)
                v //= p
    return sorted(places, key=lambda x: -1 if x == INF else x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonzero_ints, nonzero_ints, nonzero_ints)
def test_hilbert_symbol_is_bimultiplicative(a: int, b: int, c: int) -> None:
    for place in _places_for(a, b, c):
        assert hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place) == hilbert_symbol(a, b * c, place)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonzero_ints, nonzero_ints)
def test_hilbert_product_formula(a: int, b: int) -> None:
    # the symbol is +1 at every place outside _places_for, so the product
    # over that finite set is the full product
    product = 1
    for place in _places_for(a, b):
        product *= hilbert_symbol(a, b, place)
    assert product == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(bool), min_size=2, max_size=2),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_hilbert_symbol_accepts_fractions_and_nonsquarefree_arguments(ab, c: int, d: int) -> None:
    a, b = ab
    for place in relevant_places([squarefree_part(a), squarefree_part(b)]):
        expected = hilbert_symbol(squarefree_part(a), squarefree_part(b), place)
        assert hilbert_symbol(a, b, place) == expected
        assert hilbert_symbol(a * c * c, b / (d * d), place) == expected
        assert hilbert_symbol(a.numerator * a.denominator * d * d, b, place) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-400, max_value=400).filter(bool), min_size=1, max_size=9))
def test_prefix_product_hasse_matches_pairwise_product(values: list) -> None:
    entries = QForm.make(Q, values).entries
    for place in relevant_places(entries):
        pairwise = 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                pairwise *= hilbert_symbol(entries[i], entries[j], place)
        assert gwcore._hasse_at(entries, place) == pairwise


# ------------------------------------------------------------ invariants


def test_invariants_of_totally_positive_form() -> None:
    inv = invariants(QForm.make(Q, [3, 2, 6]))
    assert inv.rank == 3
    assert inv.signature == 3
    assert inv.disc == 1
    assert inv.hasse == {}


def test_invariants_of_negative_plane() -> None:
    inv = invariants(QForm.make(Q, [-1, -1]))
    assert inv.signature == -2
    assert inv.disc == 1
    assert inv.hasse == {INF: -1, 2: -1}


def test_isometry_examples() -> None:
    assert is_isometric(QForm.make(Q, [3, 2, 6]), unit_form(3))
    assert is_isometric(QForm.make(Q, [2, -2]), QForm.make(Q, [1, -1]))
    assert not is_isometric(QForm.make(Q, [1, 1]), QForm.make(Q, [1, 2]))
    assert not is_isometric(QForm.make(Q, [1]), QForm.make(Q, [1, 1]))


def test_isometry_requires_matching_fields() -> None:
    with pytest.raises(FieldMismatch):
        is_isometric(QForm.make(Q, [1]), QForm.make(R, [1]))


def _brute_force_integral_congruence(g1, g2, bound: int = 3) -> bool:
    """Search integer P with P^T g1 P == g2, entries in [-bound, bound].
    Rank 2 only; used as a one-sided isometry oracle."""
    span = range(-bound, bound + 1)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    p = [[a, b], [c, d]]
                    if a * d - b * c == 0:
                        continue
                    if congruent(p, g1) == g2:
                        return True
    return False


def test_isometry_agrees_with_brute_force_witnesses() -> None:
    rng = random.Random(11)
    found = 0
    for trial in range(40):
        g1 = [[random_nonzero(rng, 3), 0], [0, random_nonzero(rng, 3)]]
        if trial % 2 == 0:
            # congruent by construction: the witness lies inside the
            # search bound, so the brute force must find it
            p = random_unimodular(rng, 2, steps=2)
            g2 = congruent(p, g1)
            if max(abs(x) for row in p for x in row) > 3:
                continue
            assert _brute_force_integral_congruence(g1, g2)
        else:
            g2 = [[random_nonzero(rng, 3), 0], [0, random_nonzero(rng, 3)]]
            if not _brute_force_integral_congruence(g1, g2):
                continue
        found += 1
        assert is_isometric(diagonalize(g1), diagonalize(g2))
    assert found >= 10  # the sample must actually exercise the check


# ------------------------------------------------------------ Witt level


def test_hyperbolic_plane_is_witt_zero() -> None:
    assert witt_class(QForm.make(Q, [1, -1])).is_zero
    assert witt_class(hyperbolic(Q)).is_zero


def test_witt_class_of_trace_shape() -> None:
    assert witt_equal(QForm.make(Q, [3, 2, 6]), unit_form(3))


def test_witt_equal_double_hyperbolic() -> None:
    two_h = gw_add(hyperbolic(Q), hyperbolic(Q))
    assert witt_equal(GWClass.make(Q, [1, 1, -1, -1]), two_h)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_witt_class_stable_under_hyperbolic_padding(seed: int) -> None:
    rng = random.Random(seed)
    q = random_form(rng)
    padded = perp(q, QForm.make(Q, [1, -1]))
    assert witt_equal(q, padded)
    assert witt_equal(as_gw(q), gw_add(as_gw(q), hyperbolic(Q)))


def test_second_residue_examples() -> None:
    # <3,2,6> at 3: residues <1> + <2> = <1> + <-1> = 0 in W(F_3)
    assert second_residue(QForm.make(Q, [3, 2, 6]), 3).is_zero
    assert not second_residue(QForm.make(Q, [3]), 3).is_zero
    # at p = 2 the residue is the mod-2 valuation parity
    assert second_residue(QForm.make(Q, [2, 6]), 2) == 0
    assert second_residue(QForm.make(Q, [2]), 2) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_second_residue_has_finite_support(seed: int) -> None:
    rng = random.Random(seed)
    q = random_form(rng)
    divides_some_entry = set()
    for entry in q.entries:
        n = abs(Fraction(entry).numerator * Fraction(entry).denominator)
        for p in range(3, n + 1, 2):
            if n % p == 0:
                divides_some_entry.add(p)
    for p in (3, 5, 7, 11, 13):
        if p not in divides_some_entry:
            assert second_residue(q, p).is_zero


# ---------------------------------------------------------------- GW ring


def test_gw_class_reduces_shared_entries() -> None:
    assert GWClass.make(Q, [1, 2], [2]) == GWClass.make(Q, [1])


def test_gw_scalar_and_rank() -> None:
    assert gw_scalar(3) == GWClass.make(Q, [1, 1, 1])
    assert gw_scalar(-2) == gw_neg(GWClass.make(Q, [1, 1]))
    assert gw_scalar(0) == gw_zero(Q)
    assert gw_scalar(3).rank == 3
    assert gw_scalar(-2).rank == -2


def test_gw_one_is_multiplicative_identity() -> None:
    x = GWClass.make(Q, [2, 3], [6])
    assert gw_mul(gw_one(Q), x) == x


def test_hyperbolic_absorbs_products_in_witt() -> None:
    x = GWClass.make(Q, [2, 3], [6])
    assert witt_class(gw_mul(hyperbolic(Q), x)).is_zero


def test_gw_operations_reject_mixed_fields() -> None:
    with pytest.raises(FieldMismatch):
        gw_add(gw_one(Q), gw_one(R))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeds)
def test_gw_ring_laws(seed: int) -> None:
    rng = random.Random(seed)
    a, b, c = (random_gw(rng) for _ in range(3))
    assert gw_add(a, b) == gw_add(b, a)
    assert gw_add(gw_add(a, b), c) == gw_add(a, gw_add(b, c))
    assert gw_mul(a, b) == gw_mul(b, a)
    assert gw_mul(gw_mul(a, b), c) == gw_mul(a, gw_mul(b, c))
    assert gw_mul(a, gw_add(b, c)) == gw_add(gw_mul(a, b), gw_mul(a, c))
    assert gw_add(a, gw_neg(a)) == gw_zero(Q)
    assert gw_sub(a, b) == gw_add(a, gw_neg(b))


def test_gw_equality_is_semantic() -> None:
    # <2,2> and <1,1> have equal rank and Witt class but distinct entries
    assert GWClass.make(Q, [2, 2]) != GWClass.make(Q, [1, 1])
    assert gw_equal(GWClass.make(Q, [2, 2]), GWClass.make(Q, [1, 1]))
    assert not gw_equal(GWClass.make(Q, [2]), GWClass.make(Q, [1]))
    assert gw_is_zero(gw_sub(gw_one(Q), gw_one(Q)))


# ------------------------------------------------------------ invert_unit


def test_invert_unit_fixed_points() -> None:
    assert invert_unit(gw_one(Q)) == gw_one(Q)
    reduced = GWClass.make(Q, [1, 2], [2])
    assert invert_unit(reduced) == gw_one(Q)


def test_invert_unit_nontrivial() -> None:
    u = GWClass.make(Q, [1, 2, 3], [6, 1])
    v = invert_unit(u)
    assert gw_equal(gw_mul(u, v), gw_one(Q))


def test_invert_unit_rejects_nonunits() -> None:
    with pytest.raises(NotAUnit):
        invert_unit(GWClass.make(Q, [1, 1]))
    with pytest.raises(NotAUnit):
        invert_unit(GWClass.make(Q, [-1]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_nonzero, small_nonzero)
def test_invert_unit_verifies_on_random_units(a: int, b: int) -> None:
    # <1> + (<a> + <b> - <ab> - <1>) has rank 1; its signature is 1 unless
    # both entries are negative
    if a < 0 and b < 0:
        with pytest.raises(NotAUnit):
            invert_unit(GWClass.make(Q, [a, b], [a * b]))
        return
    u = GWClass.make(Q, [a, b], [a * b])
    v = invert_unit(u)
    assert gw_equal(gw_mul(u, v), gw_one(Q))


# ------------------------------------------------------- text round trips


def test_parse_and_format_forms() -> None:
    q = parse_form("<1,-2,3/4>")
    assert q.entries == (1, -2, 3)
    assert format_form(q) == "<1,-2,3>"
    assert parse_form(format_form(q)) == q


def test_parse_and_format_gw_classes() -> None:
    x = parse_gw("<2,3> - <6>")
    assert x == GWClass.make(Q, [2, 3], [6])
    assert parse_gw(format_gw(x)) == x


def test_grouped_formatting() -> None:
    assert format_gw_grouped(GWClass.make(Q, [1] * 15 + [-1] * 12)) == "15<1> + 12<-1>"
    assert format_gw_grouped(GWClass.make(Q, [1, 1, -1])) == "2<1> + <-1>"
    assert format_gw_grouped(gw_zero(Q)) == "0"


def test_parse_rejects_malformed_text() -> None:
    for bad in ("", "<1,,2>", "<1", "1,2", "<a>", "<1/0>", "<1 2>"):
        with pytest.raises(FormSyntaxError):
            parse_form(bad)


def test_empty_form_round_trips() -> None:
    # rank-0 forms are legal: they are the additive zero of the ring
    assert parse_form("<>").entries == ()
    assert parse_form(format_gw(gw_zero(Q))) == QForm.make(Q, [])


def test_hyperbolic_normal_form_cases() -> None:
    x = GWClass.make(Q, [2, 2])
    assert hyperbolic_normal_form(x) == GWClass.make(Q, [1, 1])
    mixed = GWClass.make(Q, [1] * 15 + [-1] * 12)
    assert hyperbolic_normal_form(mixed) == mixed
    assert hyperbolic_normal_form(GWClass.make(Q, [3])) is None


# ------------------------------------------- construction against reference
#
# A copy of the construction path as it was before entries were
# canonicalized once per construction: every entry goes through Fraction,
# GWClass.make canonicalizes, cancels with list.remove, and QForm.make
# canonicalizes the survivors a second time.


def _ref_squarefree_part(a) -> int:
    a = Fraction(a)
    if a == 0:
        raise InvalidEntry("zero has no square class")
    n = abs(a.numerator * a.denominator)
    r = 1
    for p, e in fields.factorize(n):
        if e % 2:
            r *= p
    return r if a > 0 else -r


def _ref_canonical_entry(field, a) -> int:
    if field.kind == "Q":
        return _ref_squarefree_part(Fraction(a))
    if field.kind == "R":
        a = Fraction(a)
        if a == 0:
            raise InvalidEntry("zero has no square class")
        return 1 if a > 0 else -1
    if field.kind == "C":
        if Fraction(a) == 0:
            raise InvalidEntry("zero has no square class")
        return 1
    p = field.p
    a = Fraction(a)
    num, den = a.numerator % p, a.denominator % p
    if num == 0 or den == 0:
        raise InvalidEntry(f"entry {a} is not a unit mod {p}")
    r = num * pow(den, p - 2, p) % p
    return 1 if fields.legendre(r, p) == 1 else fields.smallest_nonresidue(p)


def _ref_qform_make(field, entries) -> tuple:
    return tuple(
        sorted((_ref_canonical_entry(field, a) for a in entries), key=gwcore._entry_sort_key)
    )


def _ref_gw_make(field, plus, minus) -> tuple:
    p = [_ref_canonical_entry(field, a) for a in plus]
    m = [_ref_canonical_entry(field, a) for a in minus]
    for a in list(m):
        if a in p:
            p.remove(a)
            m.remove(a)
    return _ref_qform_make(field, p), _ref_qform_make(field, m)


def _gw_entries(field, plus, minus) -> tuple:
    x = GWClass.make(field, plus, minus)
    return x.plus.entries, x.minus.entries


def _qform_entries(field, entries) -> tuple:
    return QForm.make(field, entries).entries


def _result_or_error(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared by type and message below
        return ("raised", type(exc), str(exc))


construction_fields = st.sampled_from([Q, R, C, Fp(3), Fp(5), Fp(7), Fp(13)])
raw_entries = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.builds(
        lambda m, k, s: s * m * 2**k,  # above 2**64, cheap to factor
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=64, max_value=90),
        st.sampled_from((1, -1)),
    ),
    st.integers(min_value=2**64, max_value=2**64 + 64),
    st.fractions(min_value=-12, max_value=12, max_denominator=15),
    st.booleans(),
)


def _is_unit(field, a) -> bool:
    a = Fraction(a)
    p = field.p or 1
    return a != 0 and (p == 1 or (a.numerator % p != 0 and a.denominator % p != 0))


def _non_units(field):
    zeros = st.sampled_from([0, False, Fraction(0)])
    if field.p is None:
        return zeros
    p = field.p
    cofactor = st.integers(min_value=-5, max_value=5).filter(lambda k: k % p)
    return st.one_of(
        zeros,
        cofactor.map(lambda k: k * p),
        cofactor.map(lambda k: Fraction(k, p)),
        cofactor.map(lambda k: k * p * 2**70),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(field=construction_fields, data=st.data())
def test_construction_matches_reference(field, data) -> None:
    units = raw_entries.filter(lambda a: _is_unit(field, a))
    plus = data.draw(st.lists(units, max_size=8))
    minus = data.draw(st.lists(units, max_size=6))
    if plus:  # repeat some plus entries, so that cancellation runs
        minus += data.draw(st.lists(st.sampled_from(plus), max_size=6))
    minus = data.draw(st.permutations(minus))
    # in some cases, mix zeros or non-units into either side
    bad = data.draw(st.one_of(st.just([]), st.lists(_non_units(field), max_size=2)))
    for a in bad:
        side = data.draw(st.sampled_from((plus, minus)))
        side.insert(data.draw(st.integers(min_value=0, max_value=len(side))), a)

    expected = _result_or_error(_ref_gw_make, field, plus, minus)
    assert _result_or_error(_gw_entries, field, plus, minus) == expected
    expected = _result_or_error(_ref_qform_make, field, plus + minus)
    assert _result_or_error(_qform_entries, field, plus + minus) == expected
    for a in plus + minus:
        expected = _result_or_error(_ref_canonical_entry, field, a)
        assert _result_or_error(field.canonical_entry, a) == expected
        expected = _result_or_error(_ref_squarefree_part, a)
        assert _result_or_error(squarefree_part, a) == expected


def _count_canonical_entry_calls(monkeypatch) -> list[int]:
    calls = [0]
    inner = fields.FieldSpec.canonical_entry

    def counted(self, a):
        calls[0] += 1
        return inner(self, a)

    monkeypatch.setattr(fields.FieldSpec, "canonical_entry", counted)
    return calls


def test_lines_class_canonicalizes_each_entry_at_most_once(monkeypatch) -> None:
    from wittcalc.enumgeo import quadratic_lines_class

    calls = _count_canonical_entry_calls(monkeypatch)
    assert quadratic_lines_class(3).rank == 2875
    assert calls[0] <= 2875


def test_cellular_euler_canonicalizes_each_entry_at_most_once(monkeypatch) -> None:
    from wittcalc.enumgeo import Grassmannian, cellular_euler

    calls = _count_canonical_entry_calls(monkeypatch)
    assert cellular_euler(Grassmannian(2, 40)).rank == 780
    assert calls[0] <= 780
