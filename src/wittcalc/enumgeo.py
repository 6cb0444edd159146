"""Schubert-style integration on Gr(2, n) and cellular Euler classes.

Integration against the fundamental class of a 2d-dimensional
Grassmannian of planes is done by antisymmetrization: for a symmetric
homogeneous polynomial P(x, y) of degree 2*d_box,

    integral = coefficient of x^(d_box+1) y^d_box in (x - y) * P.

The count N_d of lines on a general hypersurface of degree 2d - 1 is
the integral of the product of the weight factors (2d-1-i)x + iy,
i = 0..2d-1, over Gr(2, d+2).  Its quadratic refinement is
(2d-1)!!<1> + ((N_d - (2d-1)!!)/2)(<1> + <-1>).

Cellular Euler characteristics count even- and odd-dimensional cells:
a<1> + b<-1>; the topological Euler number of the real points is its
signature.
"""
from __future__ import annotations

from typing import Sequence, Union

from .charclass import double_factorial
from .errors import InvalidEntry, NotSymmetric, ParityViolation, WrongDegree
from .fields import Frozen, Q
from .gwcore import GWClass, gw_add, gw_mul, gw_scalar, gw_sub


def _homog_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # coefficient lists of homogeneous polynomials in x, y, indexed by the
    # exponent of y
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class SymPoly2(Frozen):
    """A homogeneous symmetric integer polynomial in two variables,
    stored as the coefficients of x^(d-i) y^i for i = 0..d."""

    _fields = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        cs = tuple(int(c) for c in coefficients)
        if cs != tuple(reversed(cs)):
            raise NotSymmetric("coefficients must be palindromic")
        object.__setattr__(self, "coefficients", cs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, other: "SymPoly2") -> "SymPoly2":
        if self.degree != other.degree:
            raise WrongDegree("can only add equal-degree homogeneous polynomials")
        return SymPoly2(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __mul__(self, other: "SymPoly2") -> "SymPoly2":
        return SymPoly2(tuple(_homog_mul(self.coefficients, other.coefficients)))

    def scale(self, c: int) -> "SymPoly2":
        return SymPoly2(tuple(c * x for x in self.coefficients))


def sym_weight_product(m: int) -> SymPoly2:
    """prod_{i=0..m} ((m - i)x + iy), the top Chern-style weight product
    of the m-th symmetric power of a rank-2 bundle with roots x, y."""
    if m < 1:
        raise InvalidEntry("need m >= 1")
    out = [1]
    for i in range(m + 1):
        out = _homog_mul(out, [m - i, i])
    return SymPoly2(tuple(out))


def integrate_gr2(d_box: int, poly: SymPoly2) -> int:
    """Integrate a symmetric polynomial of degree 2*d_box over the
    2*d_box-dimensional Grassmannian of planes, by antisymmetrization."""
    if d_box < 1:
        raise InvalidEntry("need d_box >= 1")
    if poly.degree != 2 * d_box:
        raise WrongDegree(
            f"degree {poly.degree} does not match the cell (need {2 * d_box})"
        )
    shifted = _homog_mul([0, -1], poly.coefficients)  # times -y
    top = list(poly.coefficients) + [0]  # times x
    # coefficient of x^(d_box+1) y^d_box, i.e. y-exponent d_box
    return top[d_box] + shifted[d_box]


def lines_count(d: int) -> int:
    """Number of lines N_d on a general hypersurface of degree 2d - 1 in
    projective (d+1)-space."""
    if d < 2:
        raise InvalidEntry("need d >= 2")
    return integrate_gr2(d, sym_weight_product(2 * d - 1))


def quadratic_lines_class(d: int) -> GWClass:
    """Quadratically refined line count: (2d-1)!!<1> plus hyperbolic
    padding up to rank N_d."""
    n = lines_count(d)
    return _refined_count_class(n, double_factorial(2 * d - 1))


def _refined_count_class(total: int, signed: int) -> GWClass:
    if (total - signed) % 2:
        raise ParityViolation(
            f"count {total} and signed count {signed} differ by an odd number"
        )
    if total < signed:
        raise ParityViolation(f"count {total} is below its signed part {signed}")
    half = (total - signed) // 2
    return GWClass.make(Q, (1,) * (signed + half) + (-1,) * half, ())


# ---------------------------------------------------------------------------
# cellular spaces


class ProjectiveSpace(Frozen):
    _fields = ("n",)
    n: int

    def __init__(self, n: int) -> None:
        if n < 0:
            raise InvalidEntry("need n >= 0")
        object.__setattr__(self, "n", n)

    def cell_dimensions(self) -> list[int]:
        return list(range(self.n + 1))

    def __str__(self) -> str:
        return f"P{self.n}"


class Grassmannian(Frozen):
    """Gr(k, n) for k = 2: cells are partitions (a, b), n-2 >= a >= b >= 0."""

    _fields = ("k", "n")
    k: int
    n: int

    def __init__(self, k: int, n: int) -> None:
        if k != 2:
            raise InvalidEntry("only Grassmannians of planes are modeled")
        if n < 2:
            raise InvalidEntry("need n >= 2")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    def cell_dimensions(self) -> list[int]:
        return [
            a + b
            for a in range(self.n - 1)
            for b in range(a + 1)
        ]

    def __str__(self) -> str:
        return f"Gr({self.k},{self.n})"


class Product(Frozen):
    _fields = ("factors",)
    factors: tuple

    def __init__(self, factors: tuple) -> None:
        object.__setattr__(self, "factors", factors)

    def cell_dimensions(self) -> list[int]:
        dims = [0]
        for f in self.factors:
            dims = [d + e for d in dims for e in f.cell_dimensions()]
        return dims

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


class ExplicitCells(Frozen):
    _fields = ("dimensions",)
    dimensions: tuple[int, ...]

    def __init__(self, dimensions: tuple[int, ...]) -> None:
        object.__setattr__(self, "dimensions", dimensions)

    def cell_dimensions(self) -> list[int]:
        return list(self.dimensions)

    def __str__(self) -> str:
        return f"cells{self.dimensions}"


CellularSpace = Union[ProjectiveSpace, Grassmannian, Product, ExplicitCells]


def cellular_euler(space: CellularSpace) -> GWClass:
    """Euler characteristic of a cellular space: (number of even cells)<1>
    + (number of odd cells)<-1>."""
    dims = space.cell_dimensions()
    even = sum(1 for d in dims if d % 2 == 0)
    odd = len(dims) - even
    return GWClass.make(Q, (1,) * even + (-1,) * odd, ())


def real_euler(space: CellularSpace) -> int:
    """Topological Euler number of the real points: the signature of the
    cellular Euler characteristic."""
    return cellular_euler(space).signature


def flag_chi_top(m: int) -> int:
    """Euler number of the real points of the flag space of m successive
    planes, by the recursion chi(Fl_m) = chi(Gr(2, 2m)(R)) * chi(Fl_(m-1))."""
    if m < 1:
        raise InvalidEntry("need m >= 1")
    out = 1
    for j in range(2, m + 1):
        out *= real_euler(Grassmannian(2, 2 * j))
    return out


def chi_NT_GL2() -> GWClass:
    """Euler characteristic of the quotient of GL_2 by the normalizer of
    the diagonal torus: chi(P^2) - <-1> chi(P^1)."""
    p2 = cellular_euler(ProjectiveSpace(2))
    p1 = cellular_euler(ProjectiveSpace(1))
    minus_one = GWClass.make(Q, (-1,), ())
    return gw_sub(p2, gw_mul(minus_one, p1))
