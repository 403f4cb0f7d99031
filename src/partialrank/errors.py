"""Exception types shared across the package.

Each class maps to a distinct CLI exit code (see ``cli.EXIT_CODES``), so
library code should raise the most specific type that applies.
"""


class PartialRankError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PartialRankError, ValueError):
    """Operands disagree on the number of items r (or on K)."""


class CapacityError(PartialRankError, ValueError):
    """The item count r exceeds ``perms.MAX_R``, the largest r whose S_r is enumerated."""


class DomainError(PartialRankError, ValueError):
    """A parameter lies outside its admissible domain."""


class DegenerateLikelihoodError(PartialRankError, RuntimeError):
    """An observation has zero likelihood under the current parameters."""


class DegenerateClusterError(PartialRankError, RuntimeError):
    """A mixture component received no posterior mass."""


class DataFormatError(PartialRankError, ValueError):
    """A data file violates the documented format.

    ``line`` is the 1-based line number when the problem is local to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigError(PartialRankError, ValueError):
    """A run configuration violates the documented schema."""
