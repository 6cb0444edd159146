"""Base fields and square-class arithmetic.

Supported base fields are Q, R, C and F_p for odd primes p.  All
arithmetic is exact: rationals are `fractions.Fraction`, and square
classes are canonicalized to integers

* over Q:   the square-free integer with the sign of the entry,
* over R:   +1 or -1,
* over C:   1,
* over F_p: 1 or the smallest positive non-residue.

Characteristic 2 is rejected everywhere.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FactorizationLimit, InvalidEntry

# Trial division strips the small primes; rho splits what is left.  A
# higher bound only pays off for cofactors with no prime below it, and
# those cost about bound/2 Python iterations each.
_TRIAL_BOUND = 2**10

# rho steps whose |x - y| are multiplied together before one gcd is taken
_RHO_BATCH = 128

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the fixed bases cover n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A proper factor of n (odd, composite): Brent's cycle search with
    one gcd per batch of steps and deterministic restarts."""
    for c in range(1, 100):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = _gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = _gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationLimit(f"rho failed to split {n}")


# the gcd rho calls, looked up at call time so that it can be replaced
_gcd = gcd


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1, as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return tuple(sorted(out.items()))


def squarefree_part(a: int | Fraction) -> int:
    """Square-class representative of a nonzero rational: a square-free
    integer with the same sign, congruent to a modulo nonzero squares."""
    if type(a) is not int:
        a = Fraction(a)
    if a == 0:
        raise InvalidEntry("zero has no square class")
    n = abs(a.numerator * a.denominator)
    r = 1
    for p, e in factorize(n):
        if e % 2:
            r *= p
    return r if a > 0 else -r


def sqclass_mul(a: int, b: int) -> int:
    """Square class of a*b for square-free integers a and b: (a/g)(b/g)
    with g = gcd(a, b), so no factoring is needed."""
    g = gcd(a, b)
    return (a // g) * (b // g)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its attributes, in constructor order, in `_fields`
    and sets them in its own `__init__` with `object.__setattr__`.
    Equality, hashing and repr work on the tuple of those attributes
    exactly as for a frozen dataclass, and assigning or deleting an
    attribute raises AttributeError.  No code is generated at import.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(Frozen):
    """One of the supported base fields: Q, R, C, or F_p with p an odd prime."""

    _fields = ("kind", "p")
    kind: str
    p: int | None

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind not in ("Q", "R", "C", "Fp"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "Fp":
            if p is None or p == 2 or not is_prime(p):
                raise InvalidEntry(
                    "finite base fields must have odd prime order "
                    "(characteristic 2 is rejected)"
                )
        elif p is not None:
            raise ValueError(f"field {kind} takes no prime parameter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    def canonical_entry(self, a: int | Fraction) -> int:
        """Canonical square-class representative of a nonzero entry.

        An exact int (not a bool) is read as it is, since it has the
        numerator and denominator this needs; anything else goes through
        Fraction first."""
        kind = self.kind
        if kind == "Q":
            return squarefree_part(a)
        if type(a) is not int:
            a = Fraction(a)
        if kind == "R":
            if a == 0:
                raise InvalidEntry("zero has no square class")
            return 1 if a > 0 else -1
        if kind == "C":
            if a == 0:
                raise InvalidEntry("zero has no square class")
            return 1
        p = self.p
        assert p is not None
        num, den = a.numerator % p, a.denominator % p
        if num == 0 or den == 0:
            raise InvalidEntry(f"entry {a} is not a unit mod {p}")
        r = num * pow(den, p - 2, p) % p
        return 1 if legendre(r, p) == 1 else smallest_nonresidue(p)

    def negate_entry(self, a: int) -> int:
        """Canonical representative of -a (a already canonical)."""
        if self.kind == "C":
            return 1
        return self.canonical_entry(-a)

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind


Q = FieldSpec("Q")
R = FieldSpec("R")
C = FieldSpec("C")


def Fp(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)
