"""Exception types shared across the library.

The distinction that matters operationally: PrecisionExhaustionError is
the certified-failure outcome.  It means a tail bound could not be
certified from the data that was supplied, so no value is returned at
all; it never means "the answer is probably wrong".
"""


class PrecisionExhaustionError(Exception):
    """A required tail certificate could not be established.

    Raised either when claimed totals understate the actual data (the
    certificate goes provably negative) or when the search passes the
    fixed term limit, 2**(n + 16) terms at precision n, before the
    certificate closes.
    """


class InvariantViolationError(Exception):
    """A caller-certified precondition is provably false."""


class SpaceMismatchError(InvariantViolationError):
    """Operands live in different spaces."""


class NegativeInputError(InvariantViolationError):
    """A square root was asked of a provably negative value."""


class SpectralHypothesisError(InvariantViolationError):
    """Iterates diverged: the claimed spectral window does not hold."""


class SpecParseError(Exception):
    """A task document failed to parse or validate."""


class SpecResolveError(Exception):
    """A task document references names that do not resolve."""
