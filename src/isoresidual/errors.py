"""Exception and warning types shared across the package."""


class IsoresidualError(Exception):
    """Base class for errors raised by this package."""


class ParseError(IsoresidualError, ValueError):
    """Malformed text input; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RealizationExhausted(IsoresidualError, RuntimeError):
    """Random search for a generic residue tuple ran out of attempts."""


class NonIntegralResult(IsoresidualError, ArithmeticError):
    """A count came out non-integral; this always indicates an internal bug."""


class NegativeResult(IsoresidualError, ArithmeticError):
    """A count came out negative; this always indicates an internal bug."""


class InterpolationMismatch(IsoresidualError, ArithmeticError):
    """The count on a grid of pole orders has a nonzero Newton coefficient of
    total degree above n - 2, so it is no polynomial of degree <= n - 2."""


class DegenerateInput(IsoresidualError, ValueError):
    """Input outside the domain of an operation (e.g. residue conditions that
    the elimination oracle finds identically satisfied)."""


class ParabolicMultiplier(IsoresidualError, ValueError):
    """A fixed-point multiplier equal to 1 has no residue counterpart."""


class IndexConstraintViolated(IsoresidualError, ValueError):
    """Multiplier residues 1/(1-lambda_i) must sum to zero; these do not."""


class TransversalityWarning(UserWarning):
    """The elimination polynomial had a repeated root; the count reported is
    the number of distinct solutions."""
