"""The package's exception types and its one integer check.

`integers` decides every integer argument: sides, dimensions, blow-up
factors, hop depths, counts and vertex ids.  It refuses a float even when
it is whole, so nothing is truncated or wrapped on the way in.
"""

import operator

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured resource budget."""


def integers(what: str, values, low: int | None = 0, high: int | None = None):
    """`values` if each is an integer in [low, high), else DomainError naming `what`.

    A scalar goes by `operator.index` rules (floats, 2.0 too, and numpy bools
    fail) and comes back as a Python int.  Anything else must make an integer
    array, which comes back as int64 in its shape; an empty one passes.  A
    bound of None is open, within int64."""
    lo = -2**63 if low is None else low
    hi = 2**63 if high is None else high
    try:
        if lo <= (v := operator.index(values)) < hi:
            return v
        many = False
    except TypeError:
        arr = np.asarray(values)
        if arr.size == 0 or arr.dtype.kind in "iu" and lo <= arr.min() and arr.max() < hi:
            return arr.astype(np.int64, copy=False)
        many = arr.ndim > 0
    sign = "" if high is not None else {0: "nonnegative ", 1: "positive "}.get(low, "")
    bound = f" in [{lo}, {high})" if high is not None else "" if sign or low is None else f" >= {low}"
    rule = f"{sign}integers{bound}" if many else f"{'a' if sign else 'an'} {sign}integer{bound}"
    raise DomainError(f"{what} must be {rule}, got {values!r}")
