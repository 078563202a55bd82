"""Exception types shared across the library."""


class GegenfunError(Exception):
    """Base class for all library-specific errors."""


class NonFiniteCoefficient(GegenfunError, ValueError):
    """A series coefficient is inf or nan, as when a sample's arithmetic overflows."""


class DivisionByZeroSeries(GegenfunError):
    """Series division where the divisor vanishes to higher order than the dividend."""


class ZeroConstantTerm(GegenfunError):
    """Fractional power of a series whose constant term is zero."""


class NonvanishingInner(GegenfunError):
    """Composition with an inner series that does not vanish at t = 0."""


class UncancelledPole(GegenfunError):
    """A closed form left negative or fractional powers of t above tolerance."""


class PoleInDenominatorParams(GegenfunError):
    """A lower hypergeometric parameter is a non-positive integer not shielded by termination."""


class NoConvergence(GegenfunError):
    """Hypergeometric summation refused or failed to converge."""


class PoleAtNonPositiveInteger(GegenfunError):
    """Gamma function evaluated at a pole."""


class InvalidLambda(GegenfunError):
    """Gegenbauer parameter in the excluded set {0, -1/2, -1, ...}."""


class InvalidMu(GegenfunError):
    """Legendre order in the excluded set {1/2, 1, 3/2, ...}."""


class OrderIsPositiveInteger(GegenfunError):
    """Legendre order mu = 1, 2, ... where the defining formula needs a limit."""


class ArgumentOutOfDomain(GegenfunError):
    """Argument outside the cut-plane domain of the requested branch."""


class DomainMismatch(GegenfunError):
    """Input outside the validity region of the requested substitution or form."""


class OutOfRange(GegenfunError):
    """Numeric argument outside the supported interval."""


class ConsistencyError(GegenfunError):
    """Two internal construction paths for the same object disagree."""
