"""Dense univariate polynomials over exact scalars.

A polynomial is a tuple of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Coefficients
may be ints or Fractions (they mix freely).  This coefficient-list
convention is also the serialization format used at module boundaries.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple  # tuple of int | Fraction, lowest degree first

X: Poly = (0, 1)


def norm(cs: Sequence) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(a: Sequence) -> int:
    """Degree, with deg 0 = -1."""
    return len(norm(a)) - 1


def constant(c) -> Poly:
    return norm((c,))


def add(a: Sequence, b: Sequence) -> Poly:
    n = max(len(a), len(b))
    return norm(
        tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        )
    )


def neg(a: Sequence) -> Poly:
    return tuple(-c for c in a)


def sub(a: Sequence, b: Sequence) -> Poly:
    return add(a, neg(b))


def scale(a: Sequence, c) -> Poly:
    if c == 0:
        return ()
    return norm(tuple(c * x for x in a))


def mul(a: Sequence, b: Sequence) -> Poly:
    a, b = norm(a), norm(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return norm(out)


def ppow(a: Sequence, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power")
    out: Poly = (1,)
    base = norm(a)
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def pdivmod(a: Sequence, b: Sequence) -> tuple[Poly, Poly]:
    a, b = norm(a), norm(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = [Fraction(c) for c in a]
    lead = Fraction(b[-1])
    while len(r) >= len(b) and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = r[-1] / lead
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        r.pop()
    return norm(q), norm(r)


def as_ints(a: Sequence) -> Poly:
    out = []
    for c in a:
        f = Fraction(c)
        if f.denominator != 1:
            raise ArithmeticError(f"coefficient {c} is not an integer")
        out.append(f.numerator)
    return tuple(out)


def gcd_monic(a: Sequence, b: Sequence) -> Poly:
    """Monic gcd over Q (a nonzero constant gcd comes back as (1,))."""
    a, b = norm(a), norm(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return ()
    lead = Fraction(a[-1])
    return norm(tuple(Fraction(c) / lead for c in a))


def deriv(a: Sequence) -> Poly:
    a = norm(a)
    return norm(tuple(i * a[i] for i in range(1, len(a))))
