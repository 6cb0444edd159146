"""Value semantics of the immutable value classes.

Each class is compared with a frozen dataclass built at test time from the
same field names and defaults: equality, hashing, repr, keyword
construction, immutability and the constructors' validation errors must
match what the dataclass version of the class did.  A subprocess checks
that importing the CLI loads neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wittcalc
from wittcalc import (
    C,
    DetTwist,
    ExplicitCells,
    FieldSpec,
    FormInvariants,
    Fp,
    GaussianPair,
    Gen,
    Grassmannian,
    GWClass,
    InseparablePolynomial,
    InvalidEntry,
    MonicIntPoly,
    NotSymmetric,
    OtildeClass,
    Product,
    ProjectiveSpace,
    Q,
    QForm,
    R,
    RationalMapP1,
    Sum,
    Sym,
    SymPoly2,
    Tensor,
    WittClass,
)

# class -> (field names, defaults) as the dataclass declarations had them
FIELDS: dict[type, tuple[tuple[str, ...], dict[str, object]]] = {
    FieldSpec: (("kind", "p"), {"p": None}),
    QForm: (("field", "entries"), {}),
    FormInvariants: (("rank", "signature", "disc", "hasse"), {}),
    GWClass: (("field", "plus", "minus"), {}),
    WittClass: (("field", "data"), {}),
    Gen: (("index",), {}),
    Sum: (("parts",), {}),
    Tensor: (("left", "right"), {}),
    Sym: (("power", "base"), {}),
    DetTwist: (("sign", "base"), {}),
    OtildeClass: (("weight", "orientation", "coefficient", "generator"), {}),
    SymPoly2: (("coefficients",), {}),
    ProjectiveSpace: (("n",), {}),
    Grassmannian: (("k", "n"), {}),
    Product: (("factors",), {}),
    ExplicitCells: (("dimensions",), {}),
    RationalMapP1: (("num", "den"), {}),
    GaussianPair: (("re", "im"), {}),
    MonicIntPoly: (("coefficients",), {}),
}

_q12 = QForm(Q, (1, 2))
_empty = QForm(Q, ())

# constructor arguments, already in the normal form the constructors store,
# with equal and unequal values within a class and equal field tuples
# across classes
SAMPLES: list[tuple[type, tuple]] = [
    (FieldSpec, ("Q",)),
    (FieldSpec, ("Q", None)),
    (FieldSpec, ("R",)),
    (FieldSpec, ("C",)),
    (FieldSpec, ("Fp", 5)),
    (FieldSpec, ("Fp", 7)),
    (QForm, (Q, (1, 2))),
    (QForm, (Q, (1, 2))),
    (QForm, (Fp(5), (1, 2))),
    (QForm, (Q, ())),
    (FormInvariants, (2, 2, 2, {})),
    (FormInvariants, (2, 0, -1, {2: -1, "inf": -1})),
    (GWClass, (Q, _q12, _empty)),
    (GWClass, (Q, _empty, _q12)),
    (WittClass, (Q, (0, 0, ()))),
    (WittClass, (R, 2)),
    (WittClass, (C, 1)),
    (WittClass, (Fp(7), (1, 1))),
    (Gen, (1,)),
    (Gen, (3,)),
    (Sum, ((Gen(1), Gen(2)),)),
    (Tensor, (Gen(1), Gen(2))),
    (Tensor, (Gen(2), Gen(1))),
    (Sym, (1, Gen(1))),
    (Sym, (3, Gen(1))),
    (DetTwist, (1, Gen(1))),
    (DetTwist, (-1, Gen(1))),
    (OtildeClass, (3, 1, -3, "pe")),
    (OtildeClass, (2, -1, -1, "etilde")),
    (SymPoly2, ((1, 2, 1),)),
    (SymPoly2, ((3,),)),
    (ProjectiveSpace, (3,)),
    (Grassmannian, (2, 4)),
    (Product, ((ProjectiveSpace(1), Grassmannian(2, 4)),)),
    (ExplicitCells, ((1, 2, 1),)),
    (ExplicitCells, ((3,),)),
    (RationalMapP1, ((0, 1), (1,))),
    (GaussianPair, ((0, 1), (1,))),
    (GaussianPair, ((1,), ())),
    (MonicIntPoly, ((-1, 0, 1),)),
    (MonicIntPoly, ((-2, 0, 1),)),
]


def _twin(cls: type) -> type:
    names, defaults = FIELDS[cls]
    spec = [
        (n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object)
        for n in names
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


TWINS = {cls: _twin(cls) for cls in FIELDS}
PAIRS = [(cls(*args), TWINS[cls](*args)) for cls, args in SAMPLES]


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except Exception as e:  # the exception type is the outcome
        return ("raises", type(e))


def test_every_value_class_is_sampled_and_plain() -> None:
    assert {cls for cls, _ in SAMPLES} == set(FIELDS)
    for cls in FIELDS:
        assert not dataclasses.is_dataclass(cls), cls
        assert "__slots__" not in vars(cls), cls


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_constructor_signature_matches_the_dataclass(cls: type) -> None:
    def params(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(TWINS[cls])


def test_equality_matches_the_dataclass() -> None:
    for x, tx in PAIRS:
        for y, ty in PAIRS:
            assert (x == y) == (tx == ty), (x, y)
            assert (x != y) == (tx != ty), (x, y)
        assert x.__eq__(0) is NotImplemented
        assert x != tuple(getattr(x, f) for f in FIELDS[type(x)][0])


def test_hash_and_repr_match_the_dataclass() -> None:
    for x, tx in PAIRS:
        assert _outcome(hash, x) == _outcome(hash, tx), x
        assert repr(x) == repr(tx)


def test_values_survive_pickling() -> None:
    for x, _ in PAIRS:
        assert pickle.loads(pickle.dumps(x)) == x


def test_keyword_construction_and_defaults() -> None:
    assert FieldSpec("Fp", p=5) == Fp(5)
    assert FieldSpec(kind="Q") == Q
    assert FieldSpec("R").p is None
    for cls, args in SAMPLES:
        names, _ = FIELDS[cls]
        kwargs = dict(zip(names, args))
        assert cls(**kwargs) == cls(*args)
        assert TWINS[cls](**kwargs) == TWINS[cls](*args)


def test_assignment_and_deletion_raise() -> None:
    for x, _ in PAIRS:
        names = FIELDS[type(x)][0]
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(x, name)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FieldSpec("Z"), ValueError, "unknown field kind 'Z'"),
        (lambda: FieldSpec("Fp"), InvalidEntry, "odd prime order"),
        (lambda: FieldSpec("Fp", 2), InvalidEntry, "characteristic 2"),
        (lambda: Fp(9), InvalidEntry, "odd prime order"),
        (lambda: FieldSpec("Q", 5), ValueError, "field Q takes no prime parameter"),
        (lambda: Gen(0), InvalidEntry, "generator indices start at 1"),
        (lambda: Sym(0, Gen(1)), InvalidEntry, "symmetric power must be >= 1"),
        (lambda: DetTwist(2, Gen(1)), InvalidEntry, "sign must be +1 or -1"),
        (lambda: SymPoly2((1, 2)), NotSymmetric, "coefficients must be palindromic"),
        (lambda: ProjectiveSpace(-1), InvalidEntry, "need n >= 0"),
        (lambda: Grassmannian(3, 5), InvalidEntry, "only Grassmannians of planes"),
        (lambda: Grassmannian(2, 1), InvalidEntry, "need n >= 2"),
        (lambda: MonicIntPoly((1, 2)), InvalidEntry, "expected a monic polynomial"),
        (lambda: MonicIntPoly((1,)), InvalidEntry, "expected a monic polynomial"),
        (lambda: MonicIntPoly((1, 2, 1)), InseparablePolynomial, "repeated root"),
        (lambda: MonicIntPoly(("1/2", 1)), ArithmeticError, "not an integer"),
    ],
)
def test_validation_errors(build, error, message: str) -> None:
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_constructors_normalize_what_they_store() -> None:
    assert SymPoly2([1.0, 2, 1]).coefficients == (1, 2, 1)
    assert MonicIntPoly((-1, 0, 1, 0)).coefficients == (-1, 0, 1)


def test_importing_the_cli_generates_no_dataclasses() -> None:
    code = (
        "import sys; before = set(sys.modules); import wittcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(wittcalc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
