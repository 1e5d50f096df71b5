"""The three exception classes shared by all treevrpsd modules.

Every error raised by the library derives from :class:`TreeVrpsdError`,
so callers can catch one base class at an API boundary.  Rejected input
raises :class:`ValidationError`, also a :class:`ValueError`; its message
names the input and the check it failed.  :class:`TooLargeError` is for
valid input over a fixed cap of exhaustive search.
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
    """Rejected input: a malformed document, tree, pmf, realization or
    parameter."""


class TooLargeError(TreeVrpsdError):
    """Exhaustive search is over a fixed cap: ``demand.ENUM_LIMIT`` joint
    vectors, or the partition oracle's customer count."""
