"""Exception types shared across the package."""


class ModclassError(Exception):
    """Base class for all package-specific errors."""


class LimitError(ModclassError):
    """A configured resource cap (group order, field size) would be exceeded."""


class NotSubfieldError(ModclassError):
    """Requested an embedding GF(p^m) -> GF(p^n) with m not dividing n."""


class InconclusiveError(ModclassError):
    """A randomized search exhausted its attempt budget without a verdict.

    Raised instead of guessing; the caller may retry with a larger budget.
    Never raised when a definite answer was found.
    """


class ConsistencyError(ModclassError):
    """An internal cross-check that is mathematically guaranteed failed.

    Signals a genuine bug or a falsified structural assumption, not bad input.
    """


class InputError(ModclassError):
    """Malformed user-supplied data (files, flags, module descriptions)."""


def _require(cond, msg: str) -> None:
    """Raise ConsistencyError unless a mathematically forced condition holds.

    Unlike ``assert``, the check survives ``python -O``.
    """
    if not cond:
        raise ConsistencyError(msg)
