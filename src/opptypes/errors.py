"""Exception hierarchy shared by the checker, the type algebra and the CLI."""

from __future__ import annotations


class TypeTheoryError(Exception):
    """Base class for every error raised by this package."""


class IllFormedType(TypeTheoryError):
    """A type expression is not well formed in the requested universe."""


class IllFormedContext(TypeTheoryError):
    """A context violates its invariants (duplicate names, bad entry types)."""


class UnboundVariable(TypeTheoryError):
    """A term variable or type constant is not declared in the context."""


class TypeMismatch(TypeTheoryError):
    """A term does not have the expected type.

    Carries the expected and actual types, both already normalized, so
    diagnostics show canonical forms.
    """

    def __init__(self, message: str, expected=None, actual=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class NonInferableTerm(TypeTheoryError):
    """The term is a checking-only form used where a type must be inferred."""


class SortError(TypeTheoryError):
    """A formula uses an undeclared sort or predicate, or breaks its arity."""


class InvalidDerivation(TypeTheoryError):
    """A derivation node does not follow from its premises under its rule."""


class DepthCapExceeded(TypeTheoryError):
    """Requested inhabitation search depth exceeds the depth cap."""


class InternalInvariantViolation(TypeTheoryError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class NormalizationOverflow(InternalInvariantViolation):
    """Term normalization ran out of fuel (ill-typed input or a bug)."""


class ParseError(TypeTheoryError):
    """Concrete-syntax error, with position and the tokens that were legal."""

    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = tuple(expected)

    def __str__(self) -> str:
        base = f"{self.line}:{self.col}: {self.args[0]}"
        if self.expected:
            base += " (expected " + " or ".join(sorted(self.expected)) + ")"
        return base
