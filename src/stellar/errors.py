"""Exception hierarchy shared across the package."""


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
    """A vertex partition / generator pairing violates the regularity rules."""


class StructureError(StellarError):
    """Cone-structure construction or verification failed."""


class BudgetExceeded(StellarError):
    """The structure build ran out of its step budget."""
