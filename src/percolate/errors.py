"""The package's exception types and its two argument checks.

`integers` decides every integer argument (sides, dimensions, blow-up
factors, hop counts and depths, trial counts, vertex ids and seeds), and
`reals` every real argument that has a range.  Neither truncates, wraps or
lets NaN pass, and both raise `DomainError` naming the argument, its range
and the value refused.  Checks that relate several arguments, such as
2 alpha < tau - 1, are written where they apply.
"""

import math
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


def reals(what: str, values, low: float = -math.inf, high: float = math.inf, ends="[]"):
    """`values`, unchanged, if each is a number from low to high, else DomainError
    naming `what`, the interval and the first value outside it.  `ends` closes
    an end by "[" or "]" and opens it by "(" or ")"; NaN lies in no interval.
    Anything but a scalar must make a real array; an empty one passes."""
    try:  # a scalar; an array of several values fails its truth test
        if (low <= values <= high if ends == "[]" else low < values <= high if ends == "(]"
                else low < values < high if ends == "()" else low <= values < high):
            return values
    except (TypeError, ValueError):
        pass
    arr, bad = np.asarray(values), values
    if arr.dtype.kind in "biuf":  # else bad is not a number
        ok = arr > low if ends[0] == "(" else arr >= low  # NaN fails here
        if high < math.inf or ends[1] == ")":
            ok &= arr < high if ends[1] == ")" else arr <= high
        if ok.all():
            return values
        bad = arr.flat[np.argmin(ok)].item()
    rule = (("positive" if ends[0] == "(" else "nonnegative") + " and finite" * (ends[1] == ")")
            if low == 0 and high == math.inf else f"a number in {ends[0]}{low}, {high}{ends[1]}")
    raise DomainError(f"{what} must be {rule}, got {bad!r}")
