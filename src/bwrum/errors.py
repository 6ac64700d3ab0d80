"""Exception types shared across the package.

Every error raised by the library derives from :class:`BwrumError`, so
callers can catch one type at the boundary.  The CLI maps these to exit
code 1; malformed input files map to 65 and usage errors to 64.
"""

from __future__ import annotations


class BwrumError(Exception):
    """Base class for all library errors."""


class MissingCell(BwrumError):
    """A required (subset, best, worst) probability cell was not supplied."""


class DuplicateCell(BwrumError):
    """The same (subset, best, worst) cell was supplied more than once."""


class NormalizationViolation(BwrumError):
    """Probabilities within a subset do not sum to exactly one."""


class OutOfRangeProbability(BwrumError):
    """A probability lies outside [0, 1]."""


class EmptySubsetNoSmoothing(BwrumError):
    """A subset appears in count data with zero total and no smoothing."""


class InconsistentDimensions(BwrumError):
    """Input refers to alternatives outside the declared base set."""


class InvalidContext(BwrumError):
    """A polynomial was requested for an ill-formed (a, b, context) triple."""


class WitnessConstructionFailed(BwrumError):
    """A requested witness distribution could not be produced or verified."""


class NotRepresentable(BwrumError):
    """Witness construction was attempted on a system that fails the sign test."""


class ConstructionInconsistent(BwrumError):
    """The constructed masses violate the defining equations of the system."""


class MalformedDescriptor(BwrumError):
    """A ranking-pattern descriptor repeats an element or is otherwise invalid."""


class OutOfRange(BwrumError):
    """A combinatorial argument lies outside its documented domain."""


class DimensionTooLarge(BwrumError):
    """The exact LP oracle refuses base sets larger than its documented cap."""


class MalformedPattern(BwrumError):
    """A measure query used a pattern outside the supported family."""


class UnknownFixture(BwrumError):
    """emit_fixture was asked for a fixture name it does not know."""


class UsageError(BwrumError):
    """Command line arguments were malformed (CLI exit code 64)."""


class InputFileError(BwrumError):
    """An input file is missing or cannot be parsed (CLI exit code 65)."""


class OutputFileError(BwrumError):
    """An output file cannot be written (CLI exit code 1)."""
