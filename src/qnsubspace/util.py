"""Small vector and argument helpers used across modules."""

import contextlib
import math
import numbers

import numpy as np

from .errors import PolicyError


def _real(name, value):
    """``value`` as a float; PolicyError unless it is a finite real, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            if math.isfinite(value):
                return float(value)
    raise PolicyError(f"{name} must be a finite number, got {value!r}")


def _integer(name, value):
    """``value`` as an int; PolicyError unless it is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise PolicyError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_run_limits(tol, max_iter):
    """PolicyError unless ``tol`` is a finite positive number and ``max_iter``
    is None or a nonnegative integer: the stopping rule every solver takes."""
    if _real("tol", tol) <= 0.0:
        raise PolicyError(f"tol must be positive, got {tol!r}")
    if max_iter is not None and _integer("max_iter", max_iter) < 0:
        raise PolicyError(f"max_iter must be non-negative, got {max_iter!r}")


def norm(v):
    """Euclidean norm of a 1-D vector, bit for bit ``np.linalg.norm(v)``.

    ``np.linalg.norm`` takes ``sqrt(x.dot(x))`` of ``x = v.ravel(order="K")``,
    a contiguous copy when ``v`` is strided; this does the same without its
    argument dispatch, which costs more than the product at the sizes here.
    Returns a Python float.
    """
    v = np.asarray(v).ravel()
    return math.sqrt(v.dot(v))


def unit(v):
    """Return v / ||v||. Raises on the zero vector."""
    nv = norm(v)
    if nv == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / nv


def cosine_alignment(u, v):
    """|cos(angle(u, v))| for nonzero u, v; 0.0 if either is zero."""
    nu = norm(u)
    nv = norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return min(1.0, abs(float(u @ v)) / (nu * nv))


def direction_angle(u, v):
    """Unsigned angle in radians between the lines spanned by u and v.

    Sign-insensitive: u and -u span the same line. Computed from the chord
    length of the aligned unit vectors, which stays accurate near zero where
    arccos of the inner product loses precision.
    """
    uu = unit(np.asarray(u, dtype=float))
    vv = unit(np.asarray(v, dtype=float))
    if uu @ vv < 0.0:
        vv = -vv
    chord = norm(uu - vv)
    return 2.0 * np.arcsin(min(1.0, 0.5 * chord))
