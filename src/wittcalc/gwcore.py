"""Quadratic forms, Grothendieck-Witt classes and Witt invariants.

A form is diagonal with entries canonicalized to square-class
representatives; a GW class is a reduced virtual difference of two such
forms.  Entries are canonicalized once per construction: GWClass.make
canonicalizes each input entry, cancels the classes the two sides share
as multisets, sorts each side and builds both forms directly.  Gram
matrices are diagonalized by one symmetric-elimination kernel:
fraction-free Bareiss elimination over Z (after clearing denominators),
or on residues mod p over F_p.  Equality of GW classes is
decided by the complete invariant (rank, Witt class); over Q the Witt
class is the triple

    (signature, residue parity at 2, second residues at odd primes),

which is a complete invariant by the residue decomposition of W(Q),
and isometry of forms over Q is decided by rank, discriminant,
signature and Hasse invariants at the finitely many relevant places,
each a product of n Hilbert symbols (a_1...a_(j-1), a_j).

All values are immutable and all functions are pure, so everything here
is safe to share across threads.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DegenerateForm,
    FieldMismatch,
    FormSyntaxError,
    InvalidEntry,
    NonSymmetric,
    NotAUnit,
    VerificationFailed,
)
from .fields import (
    FieldSpec,
    Fp,
    Frozen,
    Q,
    factorize,
    is_prime,
    lcm,
    legendre,
    smallest_nonresidue,
    sqclass_mul,
    squarefree_part,
)

INF = "inf"  # the infinite place, as used in Hasse-invariant maps

Place = Union[int, str]
Scalar = Union[int, Fraction]


def _entry_sort_key(a: int) -> tuple:
    # ascending absolute value, positives before negatives
    return (abs(a), 0 if a > 0 else 1)


class QForm(Frozen):
    """A nondegenerate diagonal form <a_1,...,a_n> with canonical entries."""

    _fields = ("field", "entries")
    field: FieldSpec
    entries: tuple[int, ...]

    def __init__(self, field: FieldSpec, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def make(field: FieldSpec, entries: Iterable[Scalar]) -> "QForm":
        canon = sorted(
            (field.canonical_entry(a) for a in entries), key=_entry_sort_key
        )
        return QForm(field, tuple(canon))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def signature(self) -> int:
        if self.field.kind not in ("Q", "R"):
            raise FieldMismatch(f"signature is not defined over {self.field}")
        return sum(1 if a > 0 else -1 for a in self.entries)

    @property
    def disc(self) -> int:
        # canonical entries are square-free (over F_p: 1 or a prime)
        d = 1
        for a in self.entries:
            d = sqclass_mul(d, a)
        return d

    def __str__(self) -> str:
        return format_form(self)


def unit_form(n: int, field: FieldSpec = Q) -> QForm:
    """n * <1>."""
    if n < 0:
        raise ValueError("unit_form expects n >= 0")
    return QForm.make(field, (1,) * n)


def perp(q1: QForm, q2: QForm) -> QForm:
    if q1.field != q2.field:
        raise FieldMismatch("orthogonal sum of forms over different fields")
    return QForm.make(q1.field, q1.entries + q2.entries)


# ---------------------------------------------------------------------------
# diagonalization by symmetric elimination


def _as_matrix(gram: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    m = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in gram]
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSymmetric("Gram matrix must be square")
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise NonSymmetric("Gram matrix must be symmetric")
    return m


def _eliminate(m: list[list[int]], p: int | None) -> list[int]:
    """Leading principal minors D_1..D_n of a matrix congruent to the
    symmetric matrix m, by fraction-free (Bareiss) elimination in place:
    over Z when p is None, else on residues mod p.  Its k-th diagonal
    entry is D_k / D_(k-1).

    After step k the trailing block is D_k times the Schur complement, so
    the pivot rule sees the zeros of plain elimination: the first nonzero
    diagonal entry, else a symmetric move (see _make_pivot).  Only the
    upper triangle is updated; the lower one is restored before a swap
    or a move.
    """
    n = len(m)
    minors: list[int] = []
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv != k:
            for i in range(k, n):
                for j in range(i + 1, n):
                    m[j][i] = m[i][j]
            if piv is None:
                piv = _make_pivot(m, k, p)
            m[piv], m[k] = m[k], m[piv]
            for row in m[k:]:
                row[piv], row[k] = row[k], row[piv]
        rk = m[k]
        d = rk[k]
        inv = pow(prev, -1, p) if p else 1
        for i in range(k + 1, n):
            ri = m[i]
            a = rk[i]
            if p:
                ri[i:] = [(d * x - a * y) * inv % p for x, y in zip(ri[i:], rk[i:])]
            else:
                ri[i:] = [(d * x - a * y) // prev for x, y in zip(ri[i:], rk[i:])]
        rk.clear()  # a finished row is never read again
        minors.append(d)
        prev = d
    return minors


def _make_pivot(m: list[list[int]], k: int, p: int | None) -> int:
    """Make a pivot in a trailing block with zero diagonal: for its first
    nonzero m[i][j], i < j, add row j to row i and column j to column i,
    so m[i][i] becomes 2 m[i][j] (nonzero away from characteristic 2).

    Mod p, row and column i may leave [0, p) here; they become the pivot
    row and column, whose entries are only ever multiplied."""
    n = len(m)
    for i in range(k, n):
        for j in range(i + 1, n):
            if m[i][j]:
                ri, rj = m[i], m[j]
                for t in range(k, n):
                    ri[t] += rj[t]
                for row in m[k:]:
                    row[i] += row[j]
                return i
    raise DegenerateForm("Gram matrix is singular" + (f" mod {p}" if p else ""))


def diagonalize(gram: Sequence[Sequence[Scalar]], field: FieldSpec = Q) -> QForm:
    """Diagonal form congruent to a symmetric nondegenerate matrix.

    Over F_p the elimination runs on residues mod p; otherwise on the
    Gram matrix scaled to integers by the lcm L of its denominators, whose
    k-th diagonal entry D_k / D_(k-1) is L times that of the Gram matrix.
    """
    m = _as_matrix(gram)
    p = field.p if field.kind == "Fp" else None
    scale = 1
    if p:
        m = [[field_int(x, p) for x in row] for row in m]
    else:
        scale = lcm(*(x.denominator for row in m for x in row))
        m = [[x.numerator * (scale // x.denominator) for x in row] for row in m]
    minors = _eliminate(m, p)
    return QForm.make(
        field, [Fraction(d, scale * prev) for d, prev in zip(minors, [1] + minors)]
    )


def field_int(x: Scalar, p: int) -> int:
    den = x.denominator % p
    if den == 0:
        raise InvalidEntry(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(den, p - 2, p) % p


# ---------------------------------------------------------------------------
# Hilbert symbols and Hasse-Minkowski invariants


def _split_valuation(a: int, p: int) -> tuple[int, int]:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hilbert_symbol(a: Scalar, b: Scalar, place: Place) -> int:
    """Hilbert symbol (a, b) at a place of Q ("inf", 2, or an odd prime)."""
    a = squarefree_part(a)
    b = squarefree_part(b)
    if place != INF and (not isinstance(place, int) or not is_prime(place)):
        raise InvalidEntry(f"not a place of Q: {place!r}")
    return _hilbert_sf(a, b, place)


def _hilbert_sf(a: int, b: int, place: Place) -> int:
    """Hilbert symbol of square-free integers a, b at a valid place; the
    p-adic valuation of a square-free integer is 0 or 1."""
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, u = (1, a // p) if a % p == 0 else (0, a)
    beta, v = (1, b // p) if b % p == 0 else (0, b)
    if p == 2:
        # eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8, read mod 2
        e = (u - 1) // 2 * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
        e += beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = legendre(-1, p) if alpha and beta else 1
    if beta:
        s *= legendre(u, p)
    if alpha:
        s *= legendre(v, p)
    return s


def relevant_places(entries: Iterable[int]) -> list[Place]:
    """The infinite place, 2, and the odd primes dividing some entry."""
    odd: set[int] = set()
    for a in entries:
        for p, _ in factorize(abs(a)):
            if p > 2:
                odd.add(p)
    return [INF, 2] + sorted(odd)


class FormInvariants(Frozen):
    """Classifying data of a form; hasse records the places with value -1."""

    _fields = ("rank", "signature", "disc", "hasse")
    rank: int
    signature: int | None
    disc: int
    hasse: Mapping[Place, int]

    def __init__(
        self, rank: int, signature: int | None, disc: int, hasse: Mapping[Place, int]
    ) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "hasse", hasse)


def _hasse_at(entries: Sequence[int], place: Place) -> int:
    """prod_(i<j) (a_i, a_j) at a place, for square-free entries, as
    prod_j (a_1...a_(j-1), a_j) with the prefix kept square-free."""
    s = prefix = 1
    for a in entries:
        s *= _hilbert_sf(prefix, a, place)
        prefix = sqclass_mul(prefix, a)
    return s


def invariants(q: QForm) -> FormInvariants:
    if q.field.kind == "Q":
        hasse = {
            v: -1 for v in relevant_places(q.entries) if _hasse_at(q.entries, v) == -1
        }
        return FormInvariants(q.rank, q.signature, q.disc, hasse)
    if q.field.kind == "R":
        neg = sum(1 for a in q.entries if a < 0)
        hasse = {INF: -1} if (neg * (neg - 1) // 2) % 2 else {}
        return FormInvariants(q.rank, q.signature, q.disc, hasse)
    if q.field.kind == "C":
        return FormInvariants(q.rank, None, 1, {})
    return FormInvariants(q.rank, None, q.disc, {})


def is_isometric(q1: QForm, q2: QForm) -> bool:
    """Isometry test; over Q this is the Hasse-Minkowski criterion."""
    if q1.field != q2.field:
        raise FieldMismatch(f"cannot compare forms over {q1.field} and {q2.field}")
    if q1.rank != q2.rank:
        return False
    kind = q1.field.kind
    if kind == "C":
        return True
    if kind == "R":
        return q1.signature == q2.signature
    if kind == "Fp":
        return q1.disc == q2.disc
    if q1.signature != q2.signature or q1.disc != q2.disc:
        return False
    places = set(relevant_places(q1.entries)) | set(relevant_places(q2.entries))
    return all(_hasse_at(q1.entries, v) == _hasse_at(q2.entries, v) for v in places)


# ---------------------------------------------------------------------------
# Grothendieck-Witt classes


class GWClass(Frozen):
    """A virtual form plus - minus, structurally reduced (no shared entries)."""

    _fields = ("field", "plus", "minus")
    field: FieldSpec
    plus: QForm
    minus: QForm

    def __init__(self, field: FieldSpec, plus: QForm, minus: QForm) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    @staticmethod
    def make(
        field: FieldSpec,
        plus: Iterable[Scalar] = (),
        minus: Iterable[Scalar] = (),
    ) -> "GWClass":
        canon = field.canonical_entry
        p = [canon(a) for a in plus]
        m = [canon(a) for a in minus]
        if p and m:
            cp, cm = Counter(p), Counter(m)
            p, m = list((cp - cm).elements()), list((cm - cp).elements())
        p.sort(key=_entry_sort_key)
        m.sort(key=_entry_sort_key)
        return GWClass(field, QForm(field, tuple(p)), QForm(field, tuple(m)))

    @property
    def rank(self) -> int:
        return self.plus.rank - self.minus.rank

    @property
    def signature(self) -> int:
        return self.plus.signature - self.minus.signature

    def __add__(self, other: "GWClass") -> "GWClass":
        return gw_add(self, other)

    def __sub__(self, other: "GWClass") -> "GWClass":
        return gw_sub(self, other)

    def __neg__(self) -> "GWClass":
        return gw_neg(self)

    def __mul__(self, other: "GWClass") -> "GWClass":
        return gw_mul(self, other)

    def __str__(self) -> str:
        return format_gw(self)


def as_gw(q: QForm) -> GWClass:
    return GWClass.make(q.field, q.entries, ())


def _check_fields(x: GWClass, y: GWClass) -> FieldSpec:
    if x.field != y.field:
        raise FieldMismatch(f"cannot combine classes over {x.field} and {y.field}")
    return x.field


def gw_add(x: GWClass, y: GWClass) -> GWClass:
    f = _check_fields(x, y)
    return GWClass.make(
        f, x.plus.entries + y.plus.entries, x.minus.entries + y.minus.entries
    )


def gw_neg(x: GWClass) -> GWClass:
    return GWClass(x.field, x.minus, x.plus)


def gw_sub(x: GWClass, y: GWClass) -> GWClass:
    return gw_add(x, gw_neg(y))


def _form_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    return [x * y for x in a for y in b]


def gw_mul(x: GWClass, y: GWClass) -> GWClass:
    f = _check_fields(x, y)
    plus = _form_product(x.plus.entries, y.plus.entries) + _form_product(
        x.minus.entries, y.minus.entries
    )
    minus = _form_product(x.plus.entries, y.minus.entries) + _form_product(
        x.minus.entries, y.plus.entries
    )
    return GWClass.make(f, plus, minus)


def gw_scalar(n: int, field: FieldSpec = Q) -> GWClass:
    """Image of the integer n in the GW ring: n copies of <1>, with the
    copies on the minus side when n is negative (the additive inverse)."""
    if n >= 0:
        return GWClass.make(field, (1,) * n, ())
    return GWClass.make(field, (), (1,) * (-n))


def gw_zero(field: FieldSpec = Q) -> GWClass:
    return GWClass.make(field, (), ())


def gw_one(field: FieldSpec = Q) -> GWClass:
    return GWClass.make(field, (1,), ())


def hyperbolic(field: FieldSpec = Q) -> GWClass:
    return GWClass.make(field, (1, -1), ())


# ---------------------------------------------------------------------------
# Witt classes and second residues


class WittClass(Frozen):
    """Canonical Witt-group data.

    data payloads: over C the rank mod 2; over R the signature; over F_p
    the anisotropic kernel as a tuple of canonical entries; over Q the
    triple (signature, residue parity at 2, tuple of (p, kernel) for the
    odd primes with nonzero second residue).
    """

    _fields = ("field", "data")
    field: FieldSpec
    data: tuple

    def __init__(self, field: FieldSpec, data: tuple) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)

    @property
    def is_zero(self) -> bool:
        if self.field.kind == "Q":
            sig, mod2, residues = self.data
            return sig == 0 and mod2 == 0 and not residues
        if self.field.kind == "Fp":
            return not self.data
        return self.data in (0, ())

    def __str__(self) -> str:
        return format_witt(self)


def _fp_kernel(p: int, entries: Iterable[int]) -> tuple[int, ...]:
    """Anisotropic kernel of a diagonal form over F_p, entries canonical."""
    s = smallest_nonresidue(p)
    n1 = ns = 0
    for a in entries:
        if a == 1:
            n1 += 1
        else:
            ns += 1
    if p % 4 == 1:
        # -1 is a square: <a, a> is hyperbolic
        k, l = n1 % 2, ns % 2
        return ((1,) if k else ()) + ((s,) if l else ())
    # -1 is a non-residue: <s> = -<1> in the Witt group, which is Z/4
    c = (n1 - ns) % 4
    return {0: (), 1: (1,), 2: (1, 1), 3: (s,)}[c]


def second_residue(q: QForm, p: int):
    """Second residue of a form over Q at a prime.

    For odd p the result is a WittClass over F_p; at p = 2 the result is
    the parity (an int mod 2) of the number of entries of odd 2-adic
    valuation, the residue datum in W(F_2) = Z/2.
    """
    if q.field.kind != "Q":
        raise FieldMismatch("second residues are defined for forms over Q")
    if not is_prime(p):
        raise InvalidEntry(f"{p} is not prime")
    if p == 2:
        return sum(_split_valuation(a if a > 0 else -a, 2)[0] for a in q.entries) % 2
    units = []
    for a in q.entries:
        sign = 1 if a > 0 else -1
        v, u = _split_valuation(abs(a), p)
        if v % 2:
            units.append(Fp(p).canonical_entry(sign * u))
    return WittClass(Fp(p), _fp_kernel(p, units))


def witt_class(x: Union[QForm, GWClass]) -> WittClass:
    """Complete Witt-group invariant of a form or GW class."""
    if isinstance(x, QForm):
        field, entries = x.field, list(x.entries)
    else:
        field = x.field
        entries = list(x.plus.entries) + [
            field.negate_entry(a) for a in x.minus.entries
        ]
    kind = field.kind
    if kind == "C":
        return WittClass(field, len(entries) % 2)
    if kind == "R":
        return WittClass(field, sum(1 if a > 0 else -1 for a in entries))
    if kind == "Fp":
        assert field.p is not None
        return WittClass(field, _fp_kernel(field.p, entries))
    q = QForm(field, tuple(sorted(entries, key=_entry_sort_key)))
    sig = q.signature
    mod2 = second_residue(q, 2)
    primes = sorted(
        {p for p in relevant_places(entries) if isinstance(p, int) and p > 2}
    )
    residues = []
    for p in primes:
        r = second_residue(q, p)
        if not r.is_zero:
            residues.append((p, r.data))
    return WittClass(field, (sig, mod2, tuple(residues)))


def witt_equal(x: Union[QForm, GWClass], y: Union[QForm, GWClass]) -> bool:
    a, b = witt_class(x), witt_class(y)
    if a.field != b.field:
        raise FieldMismatch("cannot compare Witt classes over different fields")
    return a == b


def gw_equal(x: GWClass, y: GWClass) -> bool:
    """GW equality: equal rank and equal Witt class (a complete invariant)."""
    return x.rank == y.rank and witt_equal(x, y)


def gw_is_zero(x: GWClass) -> bool:
    return x.rank == 0 and witt_class(x).is_zero


# ---------------------------------------------------------------------------
# unit inversion


def invert_unit(u: GWClass) -> GWClass:
    """Inverse of a rank-1, signature-1 class over Q.

    With tau = u - <1>, the candidate is v = <1> - tau + tau^2 (tau lies
    in the kernel of the signature map, whose cube vanishes).  The
    product u*v is checked against <1>; the formula is never trusted.
    """
    if u.field.kind != "Q":
        raise FieldMismatch("unit inversion is implemented over Q")
    one = gw_one(u.field)
    if u.rank != 1 or u.signature != 1:
        raise NotAUnit(
            f"rank {u.rank}, signature {u.signature}: expected rank 1, signature 1"
        )
    tau = gw_sub(u, one)
    v = gw_add(gw_sub(one, tau), gw_mul(tau, tau))
    if not gw_equal(gw_mul(u, v), one):
        raise VerificationFailed("computed inverse failed the product check")
    return v


def hyperbolic_normal_form(x: GWClass) -> GWClass | None:
    """The presentation a<1> + b<-1> of a class over Q, when one exists
    (exactly when all second residues vanish); None otherwise."""
    if x.field.kind != "Q":
        return None
    sig, mod2, residues = witt_class(x).data
    if mod2 != 0 or residues:
        return None
    n = x.rank
    if (n - sig) % 2:
        return None
    a, b = (n + sig) // 2, (n - sig) // 2
    return gw_add(
        gw_scalar(a, x.field),
        gw_mul(gw_scalar(b, x.field), GWClass.make(x.field, (-1,), ())),
    )


# ---------------------------------------------------------------------------
# text syntax: forms are "<a1,...,an>", GW classes "<...>" or "<...> - <...>"

_FORM_RE = re.compile(r"^\s*<\s*([^<>]*?)\s*>\s*$")
_GW_RE = re.compile(r"^\s*(<[^<>]*>)\s*(?:-\s*(<[^<>]*>))?\s*$")


def parse_form(text: str, field: FieldSpec = Q) -> QForm:
    m = _FORM_RE.match(text)
    if not m:
        raise FormSyntaxError(f"expected <a1,...,an>, got {text!r}")
    body = m.group(1)
    if not body:
        return QForm.make(field, ())
    entries = []
    for part in body.split(","):
        part = part.strip()
        try:
            entries.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormSyntaxError(f"bad entry {part!r}") from exc
    return QForm.make(field, entries)


def parse_gw(text: str, field: FieldSpec = Q) -> GWClass:
    m = _GW_RE.match(text)
    if not m:
        raise FormSyntaxError(f"expected <...> or <...> - <...>, got {text!r}")
    plus = parse_form(m.group(1), field)
    minus = parse_form(m.group(2), field) if m.group(2) else QForm.make(field, ())
    return GWClass.make(field, plus.entries, minus.entries)


def format_form(q: QForm) -> str:
    return "<" + ",".join(str(a) for a in q.entries) + ">"


def format_gw(x: GWClass) -> str:
    if x.minus.rank == 0:
        return format_form(x.plus)
    return f"{format_form(x.plus)} - {format_form(x.minus)}"


def _grouped_terms(q: QForm) -> list[str]:
    out = []
    seen: list[int] = []
    for a in q.entries:
        if a in seen:
            continue
        seen.append(a)
        n = q.entries.count(a)
        out.append(f"<{a}>" if n == 1 else f"{n}<{a}>")
    return out


def format_gw_grouped(x: GWClass) -> str:
    """Multiplicity-grouped rendering, e.g. "15<1> + 12<-1>"."""
    plus = _grouped_terms(x.plus)
    minus = _grouped_terms(x.minus)
    if not plus and not minus:
        return "0"
    text = " + ".join(plus) if plus else "0"
    for t in minus:
        text += f" - {t}"
    return text


def format_witt(w: WittClass) -> str:
    kind = w.field.kind
    if kind == "C":
        return f"{w.data} (rank mod 2)"
    if kind == "R":
        return _signed_units(w.data)
    if kind == "Fp":
        if not w.data:
            return "0"
        return "<" + ",".join(str(a) for a in w.data) + ">"
    sig, mod2, residues = w.data
    if mod2 == 0 and not residues:
        return _signed_units(sig)
    parts = [f"sig {sig}", f"r2 {mod2}"]
    for p, kernel in residues:
        parts.append(f"r{p} <" + ",".join(str(a) for a in kernel) + ">")
    return "; ".join(parts)


def _signed_units(n: int) -> str:
    if n == 0:
        return "0"
    if n == 1:
        return "<1>"
    if n == -1:
        return "-<1>"
    return f"{n}<1>"
