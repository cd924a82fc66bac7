"""Exception types shared across the package, and the guards that raise them.

Most derive from ValueError as well so callers that only know stdlib
semantics still catch precondition failures. The guards are the one spelling
of "this value must be finite and in range": each returns the value it
checked, or raises error (ConfigError unless a caller names a narrower
class) with a message that gives the value's name, the value and the rule;
naming prefixes a refusal with the inputs it was built from. An array enters
a constructor through adopted, which takes a frozen buffer of its dtype that
owns its data as it is, and copies, freezes and checks anything else; frozen
is the one place a buffer is made read-only.
"""

import contextlib
import math
import numbers
import warnings

import numpy as np


class HgSenseError(Exception):
    """Base class for package errors."""


class UnsupportedOrderError(HgSenseError, ValueError):
    """Polynomial or mode order above the supported bound."""


class CoverageError(HgSenseError, ValueError):
    """Sampling window too small for the requested beam size."""


class GridMismatchError(HgSenseError, ValueError):
    """Two field grids do not share shape and sampling."""


class DegeneratePostSelectionError(HgSenseError, ValueError):
    """Pre- and post-selection are (numerically) orthogonal."""


class WeakRegimeError(HgSenseError, ValueError):
    """x = |alpha * A_w| dOmega exceeds the weak-coupling guard."""


class TotalExtinctionError(HgSenseError, ArithmeticError):
    """Post-selected pointer norm underflowed to zero."""


class NoCarrierError(HgSenseError, ValueError):
    """The fundamental mode carries no rotation signal."""


class NoSensitivityError(NoCarrierError):
    """Requested sensitivity bound is undefined for this mode."""


class StepSizeError(HgSenseError, ArithmeticError):
    """Finite-difference stencils disagree; step size unusable."""


class InvalidStateError(HgSenseError, ValueError):
    """Matrix fails Hermiticity/positivity/trace checks."""


class UnreachableAmplitudeError(HgSenseError, ValueError):
    """Requested modulation depth outside the invertible Bessel branch."""


class SeparationError(HgSenseError, ValueError):
    """Diffraction orders cannot be separated on this grid."""


class ExpansionInvalidError(HgSenseError, ValueError):
    """Small-signal expansion guard (alpha << alpha0 << 1) violated."""


class ConfigError(HgSenseError, ValueError):
    """Invalid run configuration: an input, or a value derived from the
    inputs, outside its domain."""


class SmallProbabilityWarning(UserWarning):
    """An outcome probability fell below the Fisher-sum floor."""


class SaturationWarning(UserWarning):
    """Detected optical power exceeds the detector's linear range."""


def finite(name, value, error=ConfigError):
    """value, unless it is NaN or infinite."""
    if not math.isfinite(value):
        raise error(f"{name} {value} must be finite")
    return value


def integer(name, value):
    """value, unless it is a bool or not an integer (numpy integers pass)."""
    if type(value) is not int and (  # an int skips the ~0.6 us ABC check
            type(value) is bool or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{name} {value} must be an integer")
    return value


def finite_positive(name, value, error=ConfigError):
    """value, unless it is not finite and above zero (NaN fails too)."""
    if not 0 < value < math.inf:
        raise error(f"{name} {value} must be finite and positive")
    return value


def finite_in(name, value, lo, hi, error=ConfigError, ends="[]"):
    """value, unless it is not finite or lies outside the interval from lo to
    hi, each end closed ("[", "]") or open ("(", ")") as ends spells it."""
    above = value >= lo if ends[0] == "[" else value > lo
    below = value <= hi if ends[1] == "]" else value < hi
    if not (above and below and -math.inf < value < math.inf):  # ints of any size too
        raise error(f"{name} {value} must be finite and lie in "
                    f"{ends[0]}{lo}, {hi}{ends[1]}")
    return value


@contextlib.contextmanager
def naming(prefix, *classes):
    """Re-raise a refusal of classes in the block as f"{prefix}: {exc}"."""
    try:
        yield
    except classes as exc:
        raise type(exc)(f"{prefix}: {exc}") from None


def positive_square(name, value):
    """The beam-waist rule: value, unless it is not positive or its square
    overflows or underflows to zero."""
    if not (value > 0 and 0 < value * value < math.inf):
        raise ConfigError(f"{name} {value} must be positive with a finite, "
                          "nonzero square")
    return value


def frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only in place: a fresh buffer, which adopted() then
    takes uncopied, or a view of one."""
    arr.flags.writeable = False
    return arr


# numpy.exceptions.ComplexWarning, np.ComplexWarning before numpy 1.25
_ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def adopted(name, arr, dtype) -> np.ndarray:
    """arr if it is a read-only ndarray of dtype that owns its data, taken
    with no pass and for good: writing to it again voids what was built on
    it (ModeState.shells, weak.final_pointer_exact's memo). Anything else as
    a frozen copy of dtype, unless numpy cannot convert it (a ragged nesting,
    entries of another kind, complex ones for a real dtype) or an entry of
    the copy is NaN or infinite (one isfinite pass)."""
    if (type(arr) is np.ndarray and arr.dtype == dtype
            and arr.flags.owndata and not arr.flags.writeable):
        return arr
    try:
        with warnings.catch_warnings():
            # a complex entry cast to a real dtype would lose its imaginary
            # part with only this warning: it refuses the copy instead
            warnings.simplefilter("error", _ComplexWarning)
            copy = np.array(arr, dtype=dtype)
    except (ValueError, TypeError, _ComplexWarning):
        raise ConfigError(f"{name} values must form a regular "
                          f"{dtype.__name__} array") from None
    if not np.isfinite(copy).all():
        raise ConfigError(f"{name} {copy[~np.isfinite(copy)].flat[0]} "
                          "must be finite")
    return frozen(copy)
