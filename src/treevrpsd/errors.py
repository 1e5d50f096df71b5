"""The three exception classes shared by all treevrpsd modules, and the
one integer check.

Every error raised by the library derives from :class:`TreeVrpsdError`,
so callers can catch one base class at an API boundary.  Rejected input
raises :class:`ValidationError`, also a :class:`ValueError`; its message
names the input and the check it failed.  :class:`TooLargeError` is for
valid input over a fixed cap of work.  Every integer input goes through
:func:`check_int`: ``<where>: expected an integer[ >= lo | in lo..hi],
got <value>``, the value shown in bounded length by :func:`describe_int`.
"""


def describe_large_int(value: int) -> str:
    """Name an int too large for a float by its digit count, not its digits."""
    value = abs(value)
    digits = int(value.bit_length() * 0.30102999566398120) + 1  # log10(2)
    digits -= value < 10 ** (digits - 1)
    return f"an integer of {digits} digits, too large for a float"


def describe_int(value) -> str:
    """A value as messages show it, in bounded length: an int in full, or
    by its digit count in angle brackets when a float cannot hold it (a
    document may carry thousands of digits); a string as the repr of its
    first 20 characters, anything else as its repr cut to 20 characters,
    each followed by its full length when cut."""
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return f"<{describe_large_int(value)}>"
        return f"{value}"
    if isinstance(value, str):
        shown, size = repr(value[:20]), len(value)
    else:
        text = repr(value)
        shown, size = text[:20], len(text)
    return shown + (f" ... ({size} characters)" if size > 20 else "")


class TreeVrpsdError(Exception):
    """Base class for all library errors."""


class ValidationError(TreeVrpsdError, ValueError):
    """Rejected input: a malformed document, tree, pmf, realization or
    parameter."""


class TooLargeError(TreeVrpsdError):
    """Work is over a fixed cap: ``demand.ENUM_LIMIT`` joint vectors, the
    partition oracle's customer count, or ``oracle.EDGE_LB_LIMIT``
    transform entries."""


def check_int(value, where: str, low: int | None = None, high: int | None = None) -> int:
    """Return ``value`` if it is an int (not a bool) >= ``low`` and <= ``high``,
    each skipped when None (``high`` is given only with ``low``); else raise
    ``ValidationError`` naming ``where``."""
    if (
        isinstance(value, int) and not isinstance(value, bool)
        and (low is None or value >= low) and (high is None or value <= high)
    ):
        return value
    limit = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise ValidationError(f"{where}: expected an integer{limit}, got {describe_int(value)}")


def check_capacity(value) -> int:
    """Return ``value`` if it is a capacity Q: an integer >= 1 that a float
    can hold (the bounds divide by Q); else raise ``ValidationError``."""
    try:
        float(check_int(value, "capacity", 1))
    except OverflowError:
        raise ValidationError(f"capacity: {describe_large_int(value)}") from None
    return value
