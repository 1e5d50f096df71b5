"""Exception taxonomy shared by all treevrpsd modules.

Every error raised by the library derives from :class:`TreeVrpsdError`,
so callers can catch one base class at an API boundary.  Validation
errors additionally derive from :class:`ValueError` to cooperate with
generic input-checking code.
"""


def describe_large_int(value: int) -> str:
    """Name an int too large for a float by its digit count, not its digits."""
    value = abs(value)
    digits = int(value.bit_length() * 0.30102999566398120) + 1  # log10(2)
    digits -= value < 10 ** (digits - 1)
    return f"an integer of {digits} digits, too large for a float"


def describe_int(value) -> str:
    """An int as messages show it: in full, or by its digit count in angle
    brackets when a float cannot hold it (a document may carry thousands
    of digits).  Any other value shows as its repr."""
    if not isinstance(value, int):
        return repr(value)
    try:
        float(value)
    except OverflowError:
        return f"<{describe_large_int(value)}>"
    return f"{value}"


class TreeVrpsdError(Exception):
    """Base class for all library errors."""


class ValidationError(TreeVrpsdError, ValueError):
    """Base class for rejected inputs."""


# -- tree construction and queries --------------------------------------

class CycleOrForestError(ValidationError):
    """Edge list does not describe one tree rooted at vertex 0."""


class NonpositiveLengthError(ValidationError):
    """An edge length is zero, negative, or not finite, or the lengths sum
    past the limit that keeps every walk cost a finite float."""


class BadCapacityError(ValidationError):
    """Vehicle capacity is not a positive integer."""


class UnknownVertexError(ValidationError):
    """Vertex index outside 0..n."""


class InvalidOrderError(ValidationError):
    """Visiting order is not a depth-first preorder of the tree."""


# -- demand distributions ------------------------------------------------

class MassAtZeroError(ValidationError):
    """Positive probability at demand 0 (zero-demand customers excluded)."""


class OutOfRangeError(ValidationError):
    """Demand value outside {0..Q} in a pmf, or support exceeding capacity."""


class NotNormalizedError(ValidationError):
    """Pmf masses do not sum to 1 within tolerance."""


class NegativeMassError(ValidationError):
    """A pmf entry carries negative probability."""


class InconsistentRealizationError(ValidationError):
    """Realization does not fit the instance (length or value bounds)."""


# -- resource limits and parameters --------------------------------------

class TooLargeError(TreeVrpsdError):
    """Exhaustive search is over a fixed cap: ``demand.ENUM_LIMIT`` joint
    vectors, or the partition oracle's customer count."""


class BadParamsError(ValidationError):
    """Generator or evaluator parameters are invalid."""


# -- instance documents ---------------------------------------------------

class InstanceSyntaxError(ValidationError):
    """Instance document is not well-formed JSON."""


class SchemaError(ValidationError):
    """Instance document is valid JSON but violates the schema."""
