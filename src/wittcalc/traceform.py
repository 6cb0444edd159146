"""Trace forms of number rings given by monic integer polynomials.

The Gram matrix of the trace pairing on Z[x]/(f) in the power basis is
(Tr(x^(i+j))), computed exactly from the coefficients of f by Newton's
identities.  The forms written Q_n here are the diagonalized trace
forms of the real subfields generated by a primitive n-th root of
unity plus its inverse, whose minimal polynomial of degree phi(n)/2 is
extracted from the n-th cyclotomic polynomial.
"""
from __future__ import annotations

from functools import lru_cache

from . import qpoly
from .errors import InseparablePolynomial, InvalidEntry
from .fields import Frozen, Q, is_prime
from .gwcore import QForm, diagonalize, is_isometric, perp, unit_form


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients (lowest degree first) of the n-th cyclotomic polynomial,
    by the classical recursion: divide x^n - 1 by the proper-divisor ones.

    The divisor is monic with integer coefficients, so the long division
    stays in the integers and must leave no remainder."""
    if n < 1:
        raise InvalidEntry("cyclotomic index must be >= 1")
    if n == 1:
        return (-1, 1)
    rem = [-1] + [0] * (n - 1) + [1]
    den: tuple = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = qpoly.mul(den, cyclotomic_poly(d))
    top = len(den) - 1
    quo = [0] * (n - top + 1)
    for k in range(n - top, -1, -1):
        c = quo[k] = rem[k + top]
        if c:
            for i, b in enumerate(den):
                rem[k + i] -= c * b
    assert not any(rem), "cyclotomic division must be exact"
    return tuple(quo)


class MonicIntPoly(Frozen):
    """A monic, separable polynomial with integer coefficients."""

    _fields = ("coefficients",)
    coefficients: tuple

    def __init__(self, coefficients: tuple) -> None:
        cs = qpoly.as_ints(qpoly.norm(coefficients))
        if len(cs) < 2 or cs[-1] != 1:
            raise InvalidEntry("expected a monic polynomial of degree >= 1")
        if qpoly.deg(qpoly.gcd_monic(cs, qpoly.deriv(cs))) > 0:
            raise InseparablePolynomial("polynomial has a repeated root")
        object.__setattr__(self, "coefficients", cs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def real_cyclotomic_minpoly(n: int) -> MonicIntPoly:
    """Minimal polynomial (degree phi(n)/2) of z + 1/z, z a primitive n-th
    root of unity, for n >= 3.

    The cyclotomic polynomial is palindromic, so Phi_n(x)/x^d is an
    integer combination of x^k + x^(-k); those rewrite into polynomials
    in y = x + 1/x by w_k = y*w_(k-1) - w_(k-2), w_0 = 2, w_1 = y.
    """
    if n < 3:
        raise InvalidEntry("need n >= 3")
    phi = cyclotomic_poly(n)
    d = (len(phi) - 1) // 2
    assert phi == tuple(reversed(phi)), "cyclotomic polynomial must be palindromic"
    w_prev: tuple = (2,)
    w: tuple = (0, 1)
    out = qpoly.constant(phi[d])
    for k in range(1, d + 1):
        out = qpoly.add(out, qpoly.scale(w, phi[d + k]))
        w_prev, w = w, qpoly.sub(qpoly.mul((0, 1), w), w_prev)
    return MonicIntPoly(out)


def trace_gram(f) -> tuple[tuple[int, ...], ...]:
    """Gram matrix (Tr(x^(i+j)))_{0<=i,j<n} of the trace form of Q[x]/(f),
    via power sums from Newton's identities."""
    if not isinstance(f, MonicIntPoly):
        f = MonicIntPoly(tuple(f))
    cs = f.coefficients
    n = f.degree
    # elementary symmetric functions of the roots
    e = [0] * (n + 1)
    for i in range(1, n + 1):
        e[i] = (-1) ** i * cs[n - i]
    p = [0] * (2 * n - 1)
    p[0] = n
    for k in range(1, 2 * n - 1):
        acc = 0
        for i in range(1, min(k, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * (p[k - i] if i < k else i)
        p[k] = acc
    return tuple(tuple(p[i + j] for j in range(n)) for i in range(n))


def trace_form_Q4p(p: int) -> QForm:
    """Diagonalized trace form Q_{4p} of the real 4p-th cyclotomic subfield."""
    _require_odd_prime(p)
    return diagonalize(trace_gram(real_cyclotomic_minpoly(4 * p)), Q)


def verify_Tp(p: int) -> bool:
    """Check <p> + Q_{4p} is isometric to the sum of p squares over Q."""
    _require_odd_prime(p)
    t = perp(QForm.make(Q, (p,)), trace_form_Q4p(p))
    return is_isometric(t, unit_form(p))


def a_lattice_gram(n: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the root lattice A_(n-1): 2 on the diagonal, -1 on
    the adjacent off-diagonals, size (n-1) x (n-1)."""
    if n < 2:
        raise InvalidEntry("need n >= 2")
    size = n - 1
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(size))
        for i in range(size)
    )


def verify_bayer_suarez(p: int) -> bool:
    """Check the A_(p-1) lattice form is rationally isometric to Q_{4p},
    and that adding <p> to it gives the sum of p squares."""
    _require_odd_prime(p)
    qa = diagonalize(a_lattice_gram(p), Q)
    if not is_isometric(qa, trace_form_Q4p(p)):
        return False
    return is_isometric(perp(QForm.make(Q, (p,)), qa), unit_form(p))


def serre_w2_check(p: int) -> bool:
    """Check the diagonalized trace form Q_p of the real p-th cyclotomic
    subfield against its classified shape: (p-1)/2 squares for p = 3 mod 4,
    and <2> + <2p> + ((p-5)/2)<1> for p = 1 mod 4."""
    _require_odd_prime(p)
    qp = diagonalize(trace_gram(real_cyclotomic_minpoly(p)), Q)
    d = (p - 1) // 2
    if p % 4 == 3:
        target = unit_form(d)
    else:
        target = perp(QForm.make(Q, (2, 2 * p)), unit_form(d - 2))
    return is_isometric(qp, target)


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise InvalidEntry(f"{p} is not an odd prime")
