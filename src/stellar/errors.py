"""Exception hierarchy shared across the package."""

from typing import Sequence


class StellarError(Exception):
    """Base class for all domain errors raised by this package."""


class ComplexError(StellarError):
    """Malformed simplex or complex, or an operation outside its domain."""


class ParseError(StellarError):
    """Input text could not be parsed into the requested object."""


class MoveError(StellarError):
    """A stellar move's precondition failed."""


class WeldError(MoveError):
    """The inverse subdivision is undefined for the given simplex/vertex."""


class EquivalenceError(StellarError):
    """A vertex partition / generator pairing violates the regularity rules.

    `reasons` lists the rules broken, one text each, when the refusal
    names them: the message is those texts joined by "; "."""

    def __init__(self, message: str = "", reasons: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.reasons = list(reasons)


class StructureError(StellarError):
    """Cone-structure construction or verification failed."""


class BudgetExceeded(StellarError):
    """The structure build ran out of its step budget."""
