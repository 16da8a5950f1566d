"""Exception hierarchy shared by all schurlab modules."""

import math
import numbers


class SchurLabError(Exception):
    """Base class; the CLI maps these to exit status 2."""


class OrderUnsupported(SchurLabError):
    """A derivative or divided-difference order exceeds what the function provides."""


class DegenerateTolerance(SchurLabError):
    """A clustering or sampling tolerance is zero or negative."""


class CoincidentPivot(SchurLabError):
    """Node-insertion identity requested with equal pivot nodes."""


class ConvergenceFailure(SchurLabError):
    """An iterative matrix decomposition did not converge.  Exit status 3."""


class BadExponent(SchurLabError):
    """A Schatten/Lebesgue exponent outside its admissible range."""


class DimensionMismatch(SchurLabError):
    """Matrix shapes incompatible with each other or with a point set."""


class OriginQuery(SchurLabError):
    """A homogeneous symbol was evaluated at the origin."""


class PoleHit(SchurLabError):
    """A rational symbol was evaluated on its polar set."""


class DiagonalQuery(SchurLabError):
    """A three-variable symbol was evaluated on the full diagonal."""


class DiagonalMargin(SchurLabError):
    """A two-variable sampling grid does not keep a positive distance to the diagonal."""


class IndexConstraint(SchurLabError):
    """A geometric-discretization index triple violates its variant's constraints."""


class OutOfWindow(SchurLabError):
    """A point lies outside the dyadic spatial window."""


class ScaleMismatch(SchurLabError):
    """A dyadic object was queried below the resolution it is defined at."""


class CoefficientBound(SchurLabError):
    """A dyadic-shift coefficient violates its size constraint."""


class CarlesonViolation(SchurLabError):
    """A paraproduct coefficient sequence fails the Carleson normalization."""


class SupportViolation(SchurLabError):
    """A symbol carries mass outside the support required by the operation."""


class BadBudget(SchurLabError):
    """A search budget with a non-integer or out-of-range count, or no candidates."""


def check_count(name: str, value, low: int = 1):
    """Raise BadBudget unless ``value`` is an integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise BadBudget(f"{name} must be an integer >= {low}, got {value!r}")


def check_exponent(name: str, p, low: float = 1.0, closed: bool = False):
    """Raise BadExponent unless low < p < inf (low <= p <= inf if ``closed``); NaN fails."""
    if not (low <= p <= math.inf if closed else low < p < math.inf):
        span = f"[{low:g}, inf]" if closed else f"({low:g}, inf)"
        raise BadExponent(f"{name} must lie in {span}, got {p}")


class NonFiniteNode(SchurLabError):
    """A divided difference or a kernel was asked for at a NaN or infinite node or
    evaluation point."""


class BadGrid(SchurLabError):
    """A sampling grid with a non-finite or non-positive extent, or too few points."""


class BadParameter(SchurLabError, ValueError):
    """A parameter outside its range or of the wrong form: a divided-difference
    slot k, a discretization ratio q, a sector overlap epsilon, a dyadic scale
    range, point-set labels, a sector, a_i, quadrant or parity index, an unknown
    function or symbol name, a malformed matrix file.  Also a ValueError."""
