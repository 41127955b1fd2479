"""Exception types shared across the package."""

import numpy as np


class DimensionMismatchError(ValueError):
    """Vector or matrix shapes are inconsistent with the problem dimension."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix or curvature value required to be positive definite is not."""


class DegenerateBasisError(np.linalg.LinAlgError):
    """A direction set is linearly dependent or a subspace solve is singular."""


class PolicyError(ValueError):
    """A step or scaling policy, or a solver's tol or max_iter, was configured
    with an invalid value, or a policy produced one."""
