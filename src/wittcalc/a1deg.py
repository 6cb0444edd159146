"""Brouwer degrees of pointed rational self-maps of the projective line.

The degree of f = A/B (deg A > deg B, A and B coprime) is the class of
the Bezout form: the symmetric matrix (c_jk) of coefficients of

    (A(X)B(Y) - A(Y)B(X)) / (X - Y)  =  sum c_jk X^j Y^k.

It is built over Z from (LA, LB), with L the lcm of the coefficient
denominators, and then divided by L^2, since Bez(LA, LB) = L^2 Bez(A, B).

The G family G(m, +-) is built from the real and imaginary parts of
(t +- i)^m, via exact Gaussian-integer pairs (re, im) with i^2 = -1;
no floating point or complex numbers are involved.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from . import qpoly
from .errors import InvalidEntry, NotCoprime, NotPointed
from .fields import Frozen, Q, is_prime
from .gwcore import GWClass, diagonalize


class RationalMapP1(Frozen):
    """A pointed self-map A/B of P^1: coprime, deg A > deg B, deg A >= 1."""

    _fields = ("num", "den")
    num: tuple
    den: tuple

    def __init__(self, num: tuple, den: tuple) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def make(num: Sequence, den: Sequence) -> "RationalMapP1":
        a = qpoly.norm(tuple(Fraction(c) for c in num))
        b = qpoly.norm(tuple(Fraction(c) for c in den))
        if qpoly.deg(a) < 1 or qpoly.deg(a) <= qpoly.deg(b):
            raise NotPointed(
                f"need deg A >= 1 and deg A > deg B, got {qpoly.deg(a)} and {qpoly.deg(b)}"
            )
        if qpoly.deg(qpoly.gcd_monic(a, b)) > 0:
            raise NotCoprime("numerator and denominator share a root")
        return RationalMapP1(a, b)

    @property
    def degree(self) -> int:
        return qpoly.deg(self.num)


class GaussianPair(Frozen):
    """Integer polynomials (re, im) standing for re(t) + i*im(t)."""

    _fields = ("re", "im")
    re: tuple
    im: tuple

    def __init__(self, re: tuple, im: tuple) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __mul__(self, other: "GaussianPair") -> "GaussianPair":
        return GaussianPair(
            qpoly.sub(qpoly.mul(self.re, other.re), qpoly.mul(self.im, other.im)),
            qpoly.add(qpoly.mul(self.re, other.im), qpoly.mul(self.im, other.re)),
        )


def gaussian_power(m: int, sign: int) -> GaussianPair:
    """(t + sign*i)^m as a GaussianPair."""
    if m < 1:
        raise InvalidEntry("exponent must be >= 1")
    if sign not in (1, -1):
        raise InvalidEntry("sign must be +1 or -1")
    base = GaussianPair((0, 1), (sign,))
    out = GaussianPair((1,), ())
    for _ in range(m):
        out = out * base
    return out


def build_G(m: int, sign: int) -> RationalMapP1:
    """The self-map with numerator re((t + sign*i)^m) and denominator
    im((t + sign*i)^m)."""
    g = gaussian_power(m, sign)
    return RationalMapP1.make(g.re, g.im)


def bezout_form(f: RationalMapP1) -> list[list[Fraction]]:
    """Symmetric Bezout matrix of f, size deg(A) x deg(A)."""
    n = f.degree
    scale = lcm(*(c.denominator for c in f.num + f.den))
    a = [int(c * scale) for c in f.num] + [0] * (n + 1 - len(f.num))
    b = [int(c * scale) for c in f.den] + [0] * (n + 1 - len(f.den))
    # synthetic division of sum_i (a_i B(Y) - b_i A(Y)) X^i by X - Y: the
    # quotient rows q_i (polynomials in Y) satisfy
    # q_(i-1) = a_i B(Y) - b_i A(Y) + Y*q_i
    rows: list[list[int]] = [[]] * n
    q = [0] * (n + 1)
    for i in range(n, -1, -1):
        ai, bi = a[i], b[i]
        q = [ai * b[j] - bi * a[j] + (q[j - 1] if j else 0) for j in range(n + 1)]
        if i:
            rows[i - 1] = q
    # q is now the remainder, and no row may reach Y^n
    assert not any(q) and not any(r[n] for r in rows), "Bezout division must be exact"
    sq = scale * scale
    return [[Fraction(x, sq) for x in r[:n]] for r in rows]


def a1_degree(f: RationalMapP1) -> GWClass:
    """The degree as a GW class over Q: the diagonalized Bezout form."""
    diag = diagonalize(bezout_form(f), Q)
    return GWClass.make(Q, diag.entries, ())


def half_binomial_poly(p: int) -> tuple:
    """h(t) = sum_{j=0..(p-1)/2} (-1)^j C(p, p-2j-1) t^(p-2j-1)."""
    coeffs = [0] * p
    for j in range((p - 1) // 2 + 1):
        k = p - 2 * j - 1
        coeffs[k] = (-1) ** j * comb(p, k)
    return qpoly.norm(coeffs)


def derivative_identity_check(p: int) -> bool:
    """For G(p, +) with p an odd prime, check the exact identities
    A'B - AB' = p*(1 + t^2)^(p-1) and B = h(t)."""
    if p == 2 or not is_prime(p):
        raise InvalidEntry(f"{p} is not an odd prime")
    f = build_G(p, 1)
    a, b = f.num, f.den
    lhs = qpoly.sub(
        qpoly.mul(qpoly.deriv(a), b), qpoly.mul(a, qpoly.deriv(b))
    )
    rhs = qpoly.scale(qpoly.ppow((1, 0, 1), p - 1), p)
    return lhs == rhs and qpoly.norm(b) == half_binomial_poly(p)
