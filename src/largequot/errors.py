"""Exception types shared across the package, and its one integer check.

Plain ``ValueError`` is used for malformed input (bad letters, rank
mismatches, words outside a required subgroup); the classes here exist for
conditions callers are expected to catch and branch on.  Every entry point
that takes an integer (a rank, a prime, an exponent, a cap) reads it
through :func:`check_int`, with its own refusal text.
"""


def check_int(value, text, low=None):
    """Return ``value`` if its type is exactly ``int`` and, when ``low`` is
    given, it is at least ``low``; else raise ``ValueError`` with ``text``
    and the value.  A bool is refused: ``True`` is an int to isinstance,
    and would be read as 1."""
    if type(value) is not int or (low is not None and value < low):
        raise ValueError(f"{text}, got {value!r}")
    return value


class CapExceeded(RuntimeError):
    """A configured resource cap was hit before the computation finished.

    ``reached`` is the size at the moment the cap fired and ``cap`` the
    configured limit, so callers can report both.
    """

    def __init__(self, what, reached, cap):
        self.what = what
        self.reached = reached
        self.cap = cap
        super().__init__(f"{what}: reached {reached} with cap {cap}")


class NotMaterializedError(RuntimeError):
    """A verbal level was queried for coset data it never materialized."""


class BelowBoundError(ValueError):
    """An exponent was below the certified avoidance bound M."""

    def __init__(self, q, bound):
        self.q = q
        self.bound = bound
        super().__init__(f"exponent {q} is below the avoidance bound M={bound}")
