"""Exception types shared across the package.

Every error raised by the library belongs to one of the classes below so
callers (in particular the command-line front end) can map failures onto
exit codes without string matching.
"""


class SpinBosonError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpinBosonError):
    """An argument lies outside a function's mathematical domain."""


class ToleranceError(SpinBosonError):
    """A numerical routine could not reach its accuracy target in budget."""


class GridError(SpinBosonError):
    """A time or parameter grid is inconsistent (bad step or size)."""


class StepError(SpinBosonError):
    """A propagated state failed sanity checks (norm, trace, positivity)."""


class ProbabilityError(SpinBosonError):
    """A per-step jump probability left the valid range; reduce the step."""


class ConfigError(SpinBosonError):
    """A run configuration is missing, malformed, or physically invalid."""
