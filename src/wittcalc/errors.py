"""Exception hierarchy.

Every failure of a documented precondition raises a subclass of
``DomainError``; the CLI maps these to exit code 2 and prints the class
name verbatim, so the names below are part of the public contract.
"""
from __future__ import annotations


class DomainError(Exception):
    """Base class for domain-level failures (CLI exit code 2)."""


class InvalidEntry(DomainError):
    """An entry is zero, or otherwise outside the field's allowed values."""


class FieldMismatch(DomainError):
    """Operands live over different base fields."""


class NonSymmetric(DomainError):
    """A Gram matrix is not symmetric."""


class DegenerateForm(DomainError):
    """A Gram matrix is singular."""


class NotAUnit(DomainError):
    """Inversion requested for a class without rank one and signature one."""


class VerificationFailed(DomainError):
    """A computed inverse failed its multiplication check."""


class NotCoprime(DomainError):
    """Numerator and denominator of a self-map share a factor."""


class NotPointed(DomainError):
    """A self-map does not fix the point at infinity."""


class InseparablePolynomial(DomainError):
    """A minimal-polynomial candidate has a repeated root."""


class UnsupportedTensor(DomainError):
    """A bundle operation is applied outside its documented coverage."""


class CharacteristicConstraint(DomainError):
    """The base field's characteristic violates a formula's hypothesis."""


class NotSymmetric(DomainError):
    """A two-variable polynomial is not symmetric in its variables."""


class WrongDegree(DomainError):
    """A polynomial's degree does not match the integration cell."""


class ParityViolation(DomainError):
    """A count and its signed refinement disagree modulo two."""


class FormSyntaxError(DomainError):
    """Unparseable form, class or bundle expression text."""


class FactorizationLimit(DomainError):
    """An integer could not be factored within the factoring method's limits."""


class ResourceLimit(DomainError):
    """A computation ran out of memory; the CLI reports it like any other
    domain error instead of a traceback."""
