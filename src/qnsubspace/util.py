"""Small vector helpers used across modules."""

import math

import numpy as np


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
