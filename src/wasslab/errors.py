"""Exception types shared across the package, and the JSON-number rule of its parsers."""


class WasslabError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(WasslabError):
    """Operands live in different (or invalid) ambient dimensions."""


class DomainError(WasslabError):
    """Argument outside the documented domain of an operation."""


class EmptyCollection(WasslabError):
    """A non-empty collection was required."""


class UnsupportedField(WasslabError):
    """The field variant does not support the requested operation."""


class InvalidWeight(WasslabError):
    """Negative or non-finite weight supplied for a measure."""


class NotNormalized(WasslabError):
    """Weight sum too far from 1 to be repaired by renormalization."""


class EmptyMeasure(WasslabError):
    """A measure must carry at least one atom."""


class SolverStalled(WasslabError):
    """Transport solver exceeded its iteration cap; treated as a bug signal."""


class InstanceTooLarge(WasslabError):
    """Instance exceeds the size supported by exhaustive enumeration."""


class NumericalInconsistency(WasslabError):
    """An internal exactness guarantee was violated; signals a solver bug."""


class SphereSamplingFailed(WasslabError):
    """No sphere candidate landed inside the requested distance band."""


class SequenceTooClose(WasslabError):
    """A probed sequence element is within the sphere radius of the base point."""


class NoUsablePairs(WasslabError):
    """Every supplied pair was degenerate (distance below resolution)."""


class InvalidRay(WasslabError):
    """A curve failed its unit-speed or calibration probe."""


class ParseError(WasslabError):
    """Malformed input file."""


def is_number(value) -> bool:
    """True for a JSON number: an int or a float, never a bool or a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_numbers(value):
    """`value` if it is a JSON number or a list, flat or nested, of them; else TypeError.

    Parsers pass every numeric entry through it inside the `try` that turns
    a TypeError into their `ParseError`.
    """
    if isinstance(value, list):
        for x in value:
            json_numbers(x)
    elif not is_number(value):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return value


class InvalidMeasure(WasslabError):
    """A parsed measure violates a construction invariant."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class IoError(WasslabError):
    """Report emission failed at the filesystem level."""


class DescentStalled(WasslabError):
    """Greedy descent found no admissible candidate at some step.

    Carries the partially built polyline, the 1-based step index at which
    the search gave up, the best calibration gap seen at that step, and the
    step's first candidate whose drop refuted the 1-Lipschitz premise, as
    (measure, distance, drop), or None.
    """

    def __init__(self, message: str, step: int, best_gap: float, polyline=None,
                 refuter=None):
        super().__init__(message)
        self.step = step
        self.best_gap = best_gap
        self.polyline = polyline
        self.refuter = refuter
