"""Euler and Pontryagin classes of bundles built from rank-2 generators.

Values live in a graded polynomial ring over the Witt ring (optionally
the GW ring) of the base field, with one degree-2 Euler-class generator
e_i per rank-2 generator bundle E_i.

Both classes come from the splitting principle (Ananyevskiy's SL
version, refined by Levine for symmetric powers).  One fold splits an
expression into rank-2 pieces, and the Euler class of each piece is a
"root", an integer linear form in the e_i:

    E_i            e_i
    Sym^m E_i      (m - 2j) e_i for j = 0..floor(m/2); for even m the
                   root 0, the trivial line, comes first
    E_i (x) E_k    e_i + e_k and e_i - e_k
    A (+) B        the roots of A, then the roots of B
    det-(A)        the roots of A, with the orientation reversed;
                   det+(A) changes nothing

The Euler class is the product of the roots, negated once per det-, and
the total Pontryagin class is the product of 1 + x^2 over the roots x.  This gives the closed
forms e(Sym^m E) = m!! e^((m+1)/2) for odd m and 0 for even m,
p(Sym^m E) = prod_j (1 + (m-2j)^2 e^2), e(E1 (x) E2) = e1^2 - e2^2 and
p(E1 (x) E2) = 1 + 2(e1^2 + e2^2) + (e1^2 - e2^2)^2.  The products
follow the expression tree, one per direct sum: in W mode a coefficient
is dropped as soon as it is Witt-zero, so the grouping of the products
shows in the printed integers.

Sym of anything but a generator, and tensor products of anything but
two generators, are refused: no rule for them is implemented, and
silently multiplying would be wrong.

The rank-2 classes of the weight-m line pairings come in two kinds: an
"untwisted" multiple of the pulled-back base class p*e for odd m, and a
multiple of a twisted class etilde for even m, subject to the rewrite
etilde^2 = 4 (p*e)^2.
"""
from __future__ import annotations

import re
from typing import Iterable, Mapping, Union

from .errors import (
    CharacteristicConstraint,
    FieldMismatch,
    FormSyntaxError,
    InvalidEntry,
    UnsupportedTensor,
)
from .fields import FieldSpec, Frozen, Q
from .gwcore import (
    GWClass,
    format_gw_grouped,
    gw_add,
    gw_equal,
    gw_is_zero,
    gw_mul,
    gw_neg,
    gw_scalar,
    witt_class,
    witt_equal,
)

# ---------------------------------------------------------------------------
# bundle expressions


class Gen(Frozen):
    """A rank-2 generator bundle E_i with trivialized determinant."""

    _fields = ("index",)
    index: int

    def __init__(self, index: int) -> None:
        if index < 1:
            raise InvalidEntry("generator indices start at 1")
        object.__setattr__(self, "index", index)


class Sum(Frozen):
    _fields = ("parts",)
    parts: tuple

    def __init__(self, parts: tuple) -> None:
        object.__setattr__(self, "parts", parts)


class Tensor(Frozen):
    _fields = ("left", "right")
    left: object
    right: object

    def __init__(self, left: object, right: object) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Sym(Frozen):
    _fields = ("power", "base")
    power: int
    base: object

    def __init__(self, power: int, base: object) -> None:
        if power < 1:
            raise InvalidEntry("symmetric power must be >= 1")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "base", base)


class DetTwist(Frozen):
    _fields = ("sign", "base")
    sign: int
    base: object

    def __init__(self, sign: int, base: object) -> None:
        if sign not in (1, -1):
            raise InvalidEntry("determinant twist sign must be +1 or -1")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "base", base)


BundleExpr = Union[Gen, Sum, Tensor, Sym, DetTwist]


# marks the end of a det- twist's roots in _split's nested lists
_DET_MINUS = object()


def _sym_roots(i: int, m: int) -> Iterable[dict[int, int]]:
    """The roots (m - 2j) e_i of Sym^m E_i, the zero root of an even m
    first, so that an Euler class product stops at once."""
    if m % 2 == 0:
        yield {i: 0}
    for c in range(m, 0, -2):
        yield {i: c}


def _split(
    expr: BundleExpr, characteristic: int
) -> tuple[int, tuple[int, ...], Iterable, list[Exception]]:
    """The splitting-principle fold: (rank, generator labels, roots,
    refusals).

    Roots are the integer linear forms {label: coefficient} of the module
    docstring's table, nested as the tree is: a node gives an iterable of
    roots, a direct sum the list of its parts' iterables, and det-(A)
    the list [roots of A, _DET_MINUS].  A Sym's roots are generated
    lazily, so the rank alone costs one step per node.  A non-expression
    node is refused at once; the other refusals are collected in
    pre-order for the caller to rank."""
    labels: set[int] = set()
    refusals: list[Exception] = []

    def walk(node: BundleExpr) -> tuple[int, Iterable]:
        if isinstance(node, Gen):
            labels.add(node.index)
            return 2, [{node.index: 1}]
        if isinstance(node, Sum):
            parts = [walk(p) for p in node.parts]
            return sum(r for r, _ in parts), [roots for _, roots in parts]
        if isinstance(node, Sym):
            m = node.power
            if characteristic and (2 * m) % characteristic == 0:
                refusals.append(
                    CharacteristicConstraint(
                        f"Sym^{m} needs the characteristic prime to {2 * m}"
                    )
                )
            if not isinstance(node.base, Gen):
                refusals.append(
                    UnsupportedTensor("Sym is only implemented on a generator bundle")
                )
                walk(node.base)
                return m + 1, []
            labels.add(node.base.index)
            return m + 1, _sym_roots(node.base.index, m)
        if isinstance(node, Tensor):
            left, right = node.left, node.right
            if not isinstance(left, Gen) or not isinstance(right, Gen):
                refusals.append(
                    UnsupportedTensor(
                        "tensor products are only implemented for two generators"
                    )
                )
                return walk(left)[0] * walk(right)[0], []
            i, k = left.index, right.index
            labels.update((i, k))
            if i == k:  # the roots e_i + e_i = 2e_i and e_i - e_i = 0
                return 4, [{i: 2}, {i: 0}]
            return 4, [{i: 1, k: 1}, {i: 1, k: -1}]
        if isinstance(node, DetTwist):
            r, roots = walk(node.base)
            return r, [roots, _DET_MINUS] if node.sign == -1 else roots
        raise InvalidEntry(f"not a bundle expression: {node!r}")

    r, roots = walk(expr)
    return r, tuple(sorted(labels)), roots, refusals


def rank(expr: BundleExpr) -> int:
    return _split(expr, 0)[0]


# ---------------------------------------------------------------------------
# graded polynomials with Witt/GW coefficients


class WittPoly:
    """Polynomial in Euler-class generators with GWClass coefficients.

    mode "W" treats coefficients as Witt classes (hyperbolic summands
    are zero); mode "GW" keeps full GW coefficients.  Monomial exponent
    vectors are indexed by the generator label tuple `gens`; the
    cohomological degree of a monomial is twice its exponent sum.
    """

    __slots__ = ("field", "gens", "mode", "terms")

    def __init__(
        self,
        field: FieldSpec,
        gens: tuple[int, ...],
        terms: Mapping[tuple[int, ...], Union[GWClass, int]],
        mode: str = "W",
    ) -> None:
        if mode not in ("W", "GW"):
            raise InvalidEntry("coefficient mode must be 'W' or 'GW'")
        self.field = field
        self.gens = tuple(gens)
        self.mode = mode
        clean: dict[tuple[int, ...], GWClass] = {}
        for key, coeff in terms.items():
            key = tuple(key)
            if len(key) != len(self.gens) or any(k < 0 for k in key):
                raise InvalidEntry(f"bad exponent vector {key!r}")
            if isinstance(coeff, int):
                coeff = gw_scalar(coeff, field)
            if coeff.field != field:
                raise FieldMismatch("coefficient field differs from the base")
            if not self._coeff_is_zero(coeff):
                clean[key] = coeff
        self.terms = clean

    # -- coefficient semantics ------------------------------------------

    def _coeff_is_zero(self, c: GWClass) -> bool:
        if self.mode == "GW":
            return gw_is_zero(c)
        return witt_class(c).is_zero

    def _coeff_equal(self, a: GWClass, b: GWClass) -> bool:
        if self.mode == "GW":
            return gw_equal(a, b)
        return witt_equal(a, b)

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(
        cls,
        value: Union[GWClass, int],
        gens: tuple[int, ...],
        field: FieldSpec = Q,
        mode: str = "W",
    ) -> "WittPoly":
        return cls(field, gens, {(0,) * len(gens): value}, mode)

    @classmethod
    def gen(
        cls,
        label: int,
        gens: tuple[int, ...],
        field: FieldSpec = Q,
        mode: str = "W",
    ) -> "WittPoly":
        key = tuple(1 if g == label else 0 for g in gens)
        if sum(key) != 1:
            raise InvalidEntry(f"label {label} is not among generators {gens}")
        return cls(field, gens, {key: 1}, mode)

    def _zero_like(self) -> "WittPoly":
        return WittPoly(self.field, self.gens, {}, self.mode)

    # -- ring operations --------------------------------------------------

    def _check(self, other: "WittPoly") -> None:
        if (
            self.field != other.field
            or self.gens != other.gens
            or self.mode != other.mode
        ):
            raise FieldMismatch("polynomials live in different rings")

    def __add__(self, other: "WittPoly") -> "WittPoly":
        self._check(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = gw_add(merged[key], coeff) if key in merged else coeff
        return WittPoly(self.field, self.gens, merged, self.mode)

    def __neg__(self) -> "WittPoly":
        return WittPoly(
            self.field,
            self.gens,
            {k: gw_neg(c) for k, c in self.terms.items()},
            self.mode,
        )

    def __sub__(self, other: "WittPoly") -> "WittPoly":
        return self + (-other)

    def __mul__(self, other: "WittPoly") -> "WittPoly":
        self._check(other)
        out: dict[tuple[int, ...], GWClass] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                c = gw_mul(c1, c2)
                out[key] = gw_add(out[key], c) if key in out else c
        return WittPoly(self.field, self.gens, out, self.mode)

    def scale(self, value: Union[GWClass, int]) -> "WittPoly":
        if isinstance(value, int):
            value = gw_scalar(value, self.field)
        return WittPoly(
            self.field,
            self.gens,
            {k: gw_mul(value, c) for k, c in self.terms.items()},
            self.mode,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WittPoly):
            return NotImplemented
        if (
            self.field != other.field
            or self.gens != other.gens
            or self.mode != other.mode
        ):
            return False
        for key in set(self.terms) | set(other.terms):
            if key not in self.terms or key not in other.terms:
                return False
            if not self._coeff_equal(self.terms[key], other.terms[key]):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    # -- queries and rewrites ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key: tuple[int, ...]) -> GWClass:
        return self.terms.get(tuple(key), gw_scalar(0, self.field))

    def homogeneous_part(self, degree: int) -> "WittPoly":
        if degree % 2:
            return self._zero_like()
        want = degree // 2
        return WittPoly(
            self.field,
            self.gens,
            {k: c for k, c in self.terms.items() if sum(k) == want},
            self.mode,
        )

    def substitute_zero(self, label: int) -> "WittPoly":
        """Set the generator e_label to 0."""
        i = self.gens.index(label)
        return WittPoly(
            self.field,
            self.gens,
            {k: c for k, c in self.terms.items() if k[i] == 0},
            self.mode,
        )

    def substitute_gen(self, src: int, dst: int) -> "WittPoly":
        """Replace the generator e_src by e_dst."""
        i, j = self.gens.index(src), self.gens.index(dst)
        out: dict[tuple[int, ...], GWClass] = {}
        for k, c in self.terms.items():
            key = list(k)
            key[j] += key[i]
            key[i] = 0
            key_t = tuple(key)
            out[key_t] = gw_add(out[key_t], c) if key_t in out else c
        return WittPoly(self.field, self.gens, out, self.mode)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        order = sorted(self.terms, key=lambda k: (sum(k), tuple(-x for x in k)))
        for key in order:
            monomial = "*".join(
                f"e{g}" if e == 1 else f"e{g}^{e}"
                for g, e in zip(self.gens, key)
                if e
            )
            sign, body = _format_term(self.terms[key], monomial)
            if not out:
                out = body if sign > 0 else f"-{body}"
            else:
                out += f" + {body}" if sign > 0 else f" - {body}"
        return out


def _format_term(coeff: GWClass, monomial: str) -> tuple[int, str]:
    """(sign, unsigned text) for one term; composite coefficients are
    parenthesized and carry their own signs."""
    entries_plus = set(coeff.plus.entries)
    entries_minus = set(coeff.minus.entries)
    if entries_plus <= {1} and not entries_minus:
        sign, text = 1, str(coeff.plus.rank)
    elif entries_minus <= {1} and not entries_plus:
        sign, text = -1, str(coeff.minus.rank)
    else:
        sign, text = 1, f"({format_gw_grouped(coeff)})"
    if not monomial:
        return sign, text
    if text == "1":
        return sign, monomial
    return sign, f"{text}*{monomial}"


# ---------------------------------------------------------------------------
# weight-m rank-2 classes and the twisted generator


def double_factorial(m: int) -> int:
    """prod_{i=0..floor(m/2)} (m - 2i); zero for even m, the usual odd
    double factorial for odd m."""
    if m < 1:
        raise InvalidEntry("need m >= 1")
    out = 1
    for i in range(m // 2 + 1):
        out *= m - 2 * i
    return out


class OtildeClass(Frozen):
    """Euler class of the weight-m rank-2 bundle, as an integer multiple
    of p*e (odd m) or of the twisted class etilde (even m)."""

    _fields = ("weight", "orientation", "coefficient", "generator")
    weight: int
    orientation: int
    coefficient: int
    generator: str  # "pe" or "etilde"

    def __init__(
        self, weight: int, orientation: int, coefficient: int, generator: str
    ) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "generator", generator)


def euler_Otilde(m: int, orientation: int = 1) -> OtildeClass:
    """Table of Euler classes of the weight-m bundles; the negatively
    oriented variant just flips the sign."""
    if m < 1:
        raise InvalidEntry("need weight m >= 1")
    if orientation not in (1, -1):
        raise InvalidEntry("orientation must be +1 or -1")
    if m % 2 == 1:
        eps = 1 if m % 4 == 1 else -1
        return OtildeClass(m, orientation, orientation * eps * m, "pe")
    if m % 4 == 2:
        return OtildeClass(m, orientation, orientation * (m // 2), "etilde")
    return OtildeClass(m, orientation, orientation * (-(m // 2)), "etilde")


class TwistedEulerPoly:
    """Integer polynomials in p*e and the order-2 twisted class etilde,
    with the rewrite etilde^2 = 4 (p*e)^2 applied on every product.

    Keys are (exponent of p*e, etilde parity in {0, 1}).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int]) -> None:
        clean: dict[tuple[int, int], int] = {}
        for (k, eps), c in terms.items():
            if k < 0 or eps not in (0, 1):
                raise InvalidEntry(f"bad twisted monomial {(k, eps)!r}")
            if c:
                clean[(k, eps)] = c
        self.terms = clean

    def __add__(self, other: "TwistedEulerPoly") -> "TwistedEulerPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return TwistedEulerPoly(out)

    def __mul__(self, other: "TwistedEulerPoly") -> "TwistedEulerPoly":
        out: dict[tuple[int, int], int] = {}
        for (k1, e1), c1 in self.terms.items():
            for (k2, e2), c2 in other.terms.items():
                k, eps, c = k1 + k2, e1 + e2, c1 * c2
                if eps == 2:
                    k, eps, c = k + 2, 0, 4 * c
                out[(k, eps)] = out.get((k, eps), 0) + c
        return TwistedEulerPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedEulerPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (k, eps) in sorted(self.terms):
            c = self.terms[(k, eps)]
            mono = "*".join(
                ([f"pe^{k}" if k > 1 else "pe"] if k else [])
                + (["etilde"] if eps else [])
            )
            pieces.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(pieces)


# ---------------------------------------------------------------------------
# restriction of symmetric powers to weight pieces


def decompose_sym_N(m: int) -> list[tuple[int, int]]:
    """Weight decomposition of the m-th symmetric power of the standard
    rank-2 representation: pairs (weight, orientation sign)."""
    if m < 1:
        raise InvalidEntry("need m >= 1")
    r = m // 2
    out = [(m - 2 * i, 1 if i % 2 == 0 else -1) for i in range(r)]
    if m % 2 == 1:
        out.append((1, 1 if r % 2 == 0 else -1))
    else:
        out.append((0, 1 if r % 2 == 0 else -1))
    return out


def check_sym_consistency(m: int) -> bool:
    """For odd m: the product of the table's Euler coefficients over the
    weight decomposition of Sym^m equals m!!."""
    if m % 2 == 0:
        raise InvalidEntry("the consistency check is for odd m")
    prod = 1
    for weight, orientation in decompose_sym_N(m):
        cls = euler_Otilde(weight, orientation)
        assert cls.generator == "pe"
        prod *= cls.coefficient
    return prod == double_factorial(m)


def clebsch_gordan(a: int, b: int) -> list[int]:
    """Highest weights of the tensor product of the irreducible SL_2
    representations of highest weights a and b, verified internally by
    Laurent-character arithmetic."""
    if a < 0 or b < 0:
        raise InvalidEntry("weights must be >= 0")
    weights = [a + b - 2 * i for i in range(min(a, b) + 1)]
    lhs = _char_mul(_char(a), _char(b))
    rhs: dict[int, int] = {}
    for n in weights:
        for w, c in _char(n).items():
            rhs[w] = rhs.get(w, 0) + c
    assert lhs == {k: v for k, v in rhs.items() if v}, "character identity failed"
    return weights


def _char(n: int) -> dict[int, int]:
    # character of the weight-n irreducible: t^n + t^(n-2) + ... + t^(-n)
    return {n - 2 * i: 1 for i in range(n + 1)}


def _char_mul(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Euler and total Pontryagin classes of bundle expressions


def _evaluate(
    expr: BundleExpr, field: FieldSpec, mode: str, factor, oriented: bool
) -> WittPoly:
    """Product of factor(one, x) over the roots x of expr, one product
    per root list, so that W-mode drops happen where the tree puts them;
    an oriented class changes sign at each det-.

    Refusals rank: a non-expression node, then the first
    CharacteristicConstraint, then a bad mode, then the first
    UnsupportedTensor."""
    _, gens, roots, refusals = _split(expr, field.characteristic)
    for exc in refusals:
        if isinstance(exc, CharacteristicConstraint):
            raise exc
    one = WittPoly.constant(1, gens, field, mode)
    if refusals:
        raise refusals[0]
    units = {g: tuple(int(g == h) for h in gens) for g in gens}

    def product(items: Iterable) -> WittPoly:
        out = one
        for item in items:
            if isinstance(item, dict):
                x = WittPoly(field, gens, {units[g]: c for g, c in item.items()}, mode)
                out = out * factor(one, x)
            elif item is _DET_MINUS:
                if oriented:
                    out = -out
            else:
                out = out * product(item)
            if out.is_zero:  # the remaining factors cannot change a zero
                break
        return out

    return product(roots)


def euler(expr: BundleExpr, field: FieldSpec = Q, mode: str = "W") -> WittPoly:
    """Euler class of a bundle expression: the product of its roots,
    negated once per det-.

    Odd-rank expressions come out zero: each odd-rank piece is an even
    symmetric power, whose first root is 0."""
    return _evaluate(expr, field, mode, lambda one, x: x, True)


def pontryagin_total(
    expr: BundleExpr, field: FieldSpec = Q, mode: str = "W"
) -> WittPoly:
    """Total Pontryagin class of a bundle expression: the product of
    1 + x^2 over its roots x (Whitney-multiplicative over sums, blind to
    determinant twists)."""
    return _evaluate(expr, field, mode, lambda one, x: one + x * x, False)


# ---------------------------------------------------------------------------
# bundle-expression text syntax

_TOKEN_RE = re.compile(r"\s*(Sym\(|det-\(|det\+\(|\(\+\)|\(x\)|E\d+|\d+|\(|\)|,)")

# deepest nesting parse_bundle accepts, so that the recursive fold over the
# expression stays far below the recursion limit
_MAX_BUNDLE_DEPTH = 100


def parse_bundle(text: str) -> BundleExpr:
    """Parse the bundle syntax: E1, Sym(3,E1), E1 (+) E2, E1 (x) E2,
    det-(Sym(2,E1)), with (x) binding tighter than (+).  Brackets and
    chained (x) together nest at most 100 deep."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormSyntaxError(f"bad bundle syntax near {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    i = 0  # index of the next unread token

    def peek() -> str | None:
        return tokens[i] if i < len(tokens) else None

    def pop(expected: str | None = None) -> str:
        nonlocal i
        if i == len(tokens):
            raise FormSyntaxError("unexpected end of bundle expression")
        tok = tokens[i]
        i += 1
        if expected is not None and tok != expected:
            raise FormSyntaxError(f"expected {expected!r}, got {tok!r}")
        return tok

    def nest(depth: int) -> int:
        if depth == _MAX_BUNDLE_DEPTH:
            raise FormSyntaxError(
                f"bundle expression nested deeper than {_MAX_BUNDLE_DEPTH}"
            )
        return depth + 1

    def parse_sum(depth: int) -> BundleExpr:
        parts = [parse_tensor(depth)]
        while peek() == "(+)":
            pop()
            parts.append(parse_tensor(depth))
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def parse_tensor(depth: int) -> BundleExpr:
        node = parse_atom(depth)
        while peek() == "(x)":
            pop()
            depth = nest(depth)
            node = Tensor(node, parse_atom(depth))
        return node

    def parse_atom(depth: int) -> BundleExpr:
        tok = pop()
        if tok.startswith("E"):
            return Gen(int(tok[1:]))
        if tok == "Sym(":
            power = pop()
            if not power.isdigit():
                raise FormSyntaxError(f"expected an integer power, got {power!r}")
            pop(",")
            inner = parse_sum(nest(depth))
            pop(")")
            return Sym(int(power), inner)
        if tok == "det-(":
            inner = parse_sum(nest(depth))
            pop(")")
            return DetTwist(-1, inner)
        if tok == "det+(":
            inner = parse_sum(nest(depth))
            pop(")")
            return DetTwist(1, inner)
        if tok == "(":
            inner = parse_sum(nest(depth))
            pop(")")
            return inner
        raise FormSyntaxError(f"unexpected token {tok!r}")

    out = parse_sum(0)
    if i < len(tokens):
        raise FormSyntaxError(f"trailing tokens: {' '.join(tokens[i:])}")
    return out
