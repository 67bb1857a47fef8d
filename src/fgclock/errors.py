"""Exception hierarchy shared across the package."""


class FgclockError(Exception):
    """Base class for all package-specific errors; ``settings`` names what a refusal read."""

    def __init__(self, *args, settings=()):
        super().__init__(*args)
        self.settings = settings


class ParameterError(FgclockError, ValueError):
    """A model or estimator parameter is outside its domain."""


class ShapeError(FgclockError, ValueError):
    """Sequence lengths are inconsistent with each other or with the config."""


class DegenerateModelError(FgclockError, ValueError):
    """sigma = 0 requested where the Gauss-Markov density is degenerate."""


class SizeError(FgclockError, ValueError):
    """Problem size exceeds what an exhaustive solver supports."""


class GridCoverageError(FgclockError, RuntimeError):
    """The discretization grid does not cover the feasible optimum."""
