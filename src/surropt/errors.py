"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError and InputError are user
mistakes (exit 2), OSError is an environment problem (exit 3), and
ResourceLimitError / InternalError are internal failures (exit 4).
"""


class SurroptError(Exception):
    """Base class for all package errors."""


class ConfigError(SurroptError):
    """A configuration file or parameter set is invalid."""


class InputError(SurroptError):
    """An argument violates an operation's preconditions."""


class ResourceLimitError(SurroptError):
    """An iteration or size cap was exhausted before convergence; the
    operation fails whole and returns no result."""


class InternalError(SurroptError):
    """An internal invariant was violated; indicates a bug, not bad data."""
