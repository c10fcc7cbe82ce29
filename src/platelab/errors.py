"""Exception hierarchy shared by all platelab modules."""


class PlatelabError(Exception):
    """Base class for all errors raised by platelab."""


class GridTooCoarse(PlatelabError):
    """The grid does not resolve the domain (too few interior unknowns)."""


class EmptyErosion(PlatelabError):
    """Erosion width meets or exceeds the inradius; the eroded set is empty."""


class BandUnresolved(PlatelabError):
    """Cutoff transition band is narrower than 4 grid cells."""


class NegativeQuartic(PlatelabError):
    """The quartic symbol evaluated to a negative value (non-admissible tensor)."""


class NoConvergence(PlatelabError):
    """Iterative solver failed to reach the requested tolerance.

    Carries the achieved residuals in ``residuals`` when available.
    """

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


class NotElliptic(PlatelabError):
    """The lattice symbol of a quadratic form is not positive."""


class EllipticityLost(PlatelabError):
    """A coefficient perturbation made the lattice symbol nonpositive."""


class MassNotPD(PlatelabError):
    """Mass/weight matrix of a generalized pencil is not positive definite."""


class AlphaOutOfRange(PlatelabError):
    """Weight exponent alpha outside the supported interval."""


class BoundViolated(PlatelabError):
    """Perturbation magnitude outside the hypothesis of the stability bound."""


class ConfigError(PlatelabError):
    """Malformed or inconsistent run configuration."""
