"""Exception types raised across the package."""


class QJumpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QJumpError):
    """Array shapes are inconsistent with each other or with the declared dimension."""


class NonHermitianInput(QJumpError):
    """A matrix that must be Hermitian fails the hermiticity tolerance."""


class InvalidGenerator(QJumpError):
    """A generator specification violates one of its numeric invariants."""


class NegativeRate(QJumpError):
    """The modified rate operator has an eigenvalue below the negativity tolerance."""


class EmptyChannels(QJumpError):
    """A jump was requested but no jump channel is available."""


class StepTooLarge(QJumpError):
    """A step is too large: its jump probability exceeds the ceiling, or the
    Runge-Kutta step a trajectory takes drifted too far from unit norm before
    renormalization.  The message names the trajectory and the time.
    """


class PositivityLost(QJumpError):
    """A density operator developed an eigenvalue below the negativity tolerance."""


class ConfigError(QJumpError):
    """Base class for configuration file problems."""


class ParseError(ConfigError):
    """The configuration text is not syntactically well formed."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.errors)
        super().__init__(f"config syntax errors: {lines}")


class ValidationError(ConfigError):
    """The configuration parsed but one or more values are invalid.

    Carries the full list of (line, message) pairs, not just the first.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.errors)
        super().__init__(f"config validation errors: {lines}")
