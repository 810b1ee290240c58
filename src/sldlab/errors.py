"""Exception types raised by the library.

Everything derives from SldLabError so callers can catch the whole family;
most classes also subclass ValueError because they signal bad arguments.
"""


class SldLabError(Exception):
    """Base class for all library errors."""


class DomainError(SldLabError, ValueError):
    """An argument is outside an operation's documented domain."""


# signals and polynomials

class ZeroInput(DomainError):
    """An all-zero sequence where a nonzero one is required."""


class ZeroSignal(DomainError):
    """An all-zero signal where a nonzero one is required."""


class ZeroPolynomial(DomainError):
    """The zero polynomial where a nonzero one is required."""


# root finding

class NoConvergence(SldLabError):
    """The root iteration exhausted its budget; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ZeroArgument(DomainError):
    """Zero passed where the reciprocal conjugate is needed."""


class AsymmetricSpectrum(DomainError):
    """Root multiset is not closed under reflection across the unit circle."""


# magnitude ratios

class ConditionViolated(DomainError):
    """The per-orbit multiplicity condition for a constant magnitude ratio fails."""


# equivalence

class PeriodMismatch(DomainError):
    """Two signals with different periods cannot be compared."""


# ambiguity classes

class DegreeTooLarge(DomainError):
    """Polynomial degree exceeds the 2m bound of the requested harmonic order."""


class CombinatorialBlowup(SldLabError):
    """Enumeration would exceed the configured candidate cap."""


class NotAnAutocorrelation(DomainError):
    """Sequence fails the structural test for being a square-law measurement."""


class NegativeIntensity(DomainError):
    """Synthesized intensity dips below zero beyond tolerance."""


# capacity experiments

class DuplicateSignals(DomainError):
    """Constellation contains two signals that are equal almost everywhere."""


class UnsupportedOrder(DomainError):
    """Harmonic order outside the experiment's supported range (m >= 1)."""


# CLI / serialization

class ParseError(SldLabError):
    """Input file is not valid JSON."""


class SchemaMismatch(SldLabError):
    """JSON parsed but does not match the declared schema."""
