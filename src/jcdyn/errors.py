"""Exception types shared across the library, and the one check of a
numeric argument."""

import math

import numpy as np

# Per kind: the dtype kinds accepted, then one entry and many entries named.
_KINDS = {
    float: ("iuf", "a real number", "real numbers"),
    complex: ("iufc", "a number", "numbers"),
    int: ("iu", "an integer", "integers"),
}


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class OutOfRangeError(InvalidInputError):
    """A time falls outside the domain of a tabulated coupling profile."""


class NumericalFailureError(RuntimeError):
    """An adaptive numerical routine could not meet its accuracy target.

    Parameters
    ----------
    message : str
        Human-readable description of what failed.
    estimate : float or None
        Best available result at the point of failure, if any.
    error_bound : float or None
        Estimated error of ``estimate``, if known.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ScenarioError(InvalidInputError):
    """A scenario document is malformed or semantically invalid.

    ``path`` names the offending key in dotted form, e.g. ``"field.thermal"``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def as_numbers(value, name, ndim=0, kind=float):
    """Every numeric argument's one check, before the caller's own bounds.

    Takes a Python or numpy number, or an array or nested sequence of them,
    of rank ``ndim`` (or a rank in the tuple ``ndim``); ``kind`` is float,
    complex or int. Strings, booleans, object arrays, ragged nests and
    entries that are not finite (ints beyond float range too) raise
    InvalidInputError naming ``name``. Returns a Python number for rank 0,
    else a ``kind`` array.
    """
    ranks = ndim if isinstance(ndim, tuple) else (ndim,)
    if (type(value) is float or type(value) is int) and 0 in ranks:
        # One Python number, the common case, checked without an array. An
        # int outside 64 bits, or a float, for kind int goes on below.
        if kind is not int:
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if not math.isfinite(number):
                raise InvalidInputError(f"{name} must be finite")
            return complex(number) if kind is complex else number
        if type(value) is int and -(2**63) <= value < 2**64:
            return value
    dtypes, one, many = _KINDS[kind]
    try:
        if not isinstance(value, (np.ndarray, np.generic)):
            entries = np.array(value, dtype=object).flat
            if not all(
                type(x) is int or np.asarray(x).dtype.kind in "iufc" for x in entries
            ):
                raise ValueError
        arr = np.asarray(value)
        if arr.dtype == object and not isinstance(value, np.ndarray):
            # Python ints past 64 bits; past float range they overflow.
            arr = arr.astype(complex if kind is complex else float)
    except (TypeError, ValueError):  # a string, a boolean or a ragged nest
        arr = None
    except OverflowError:
        raise InvalidInputError(f"{name} must be finite") from None
    if arr is None or arr.dtype.kind not in dtypes or arr.ndim not in ranks:
        forms = [one if ranks[0] == 0 else f"a {ranks[0]}-D sequence of {many}"]
        forms += [f"a {r}-D sequence of them" for r in ranks[1:]]
        raise InvalidInputError(f"{name} must be {' or '.join(forms)}")
    if kind is not int:
        arr = arr.astype(kind, copy=False)
        if not all_finite(arr):
            raise InvalidInputError(f"{name} must be finite")
    return arr.item() if arr.ndim == 0 else arr


def all_finite(arr):
    """Whether every entry of a float or complex array, of any layout, is
    finite. Reads the least and greatest entry, which a NaN propagates to,
    so no mask as large as the array is allocated: of one float view when
    the array is C-contiguous, else of its real and imaginary parts."""
    if arr.dtype.kind != "c":
        parts = (arr,)
    elif arr.flags.c_contiguous:
        parts = (arr.reshape(-1).view(arr.real.dtype),)
    else:
        parts = (arr.real, arr.imag)
    return arr.size == 0 or all(
        math.isfinite(part.min()) and math.isfinite(part.max()) for part in parts
    )
