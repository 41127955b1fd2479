"""Strictly convex quadratic problems with controlled spectrum and Krylov structure.

The objective is f(x) = x'Hx/2 + c'x with H symmetric positive definite, so
the gradient is g(x) = Hx + c and the unique minimizer solves Hx + c = 0.
Everything downstream (baselines, subspace steps, the arbitrary-step method)
is exercised against instances built here, whose Krylov grade is known by
construction.

A problem file is JSON, with ``<stem>.spectrum.npy`` beside it: row 0 holds
the ascending eigenvalues of H and rows 1..n its eigenvectors, as ``eigh``
gave them, byte-reproducible on one machine and BLAS thread count. Loading
checks it against H; a file that names none loads, and its problem runs
``eigh`` on first use.
"""

import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import orjson
from numpy.lib import format as npy
from numpy.linalg import norm

from . import util
from .errors import DimensionMismatchError, NotPositiveDefiniteError

MAX_DIMENSION = 512

# Rank tolerance for grade detection, applied to candidates H v with ||v|| = 1:
# a new Krylov vector whose component outside the current span is at most
# RANK_RTOL * max(1, ||H||_1) is treated as dependent.
RANK_RTOL = 1e-10

# Spectra wider than this get flagged: angle and equality tolerances in the
# test suites are calibrated for condition numbers below it.
ILL_CONDITIONED = 1e8

# A spectrum read from a file is rejected unless max|V'V - I| and
# max|HV - V diag(lambda)| / max(1, max|H|) are at most SPECTRUM_RTOL * n.
# eigh's own results stay below 3e-16 n over n in [6, 512], cond up to 1e8
# and repeated eigenvalues; tests/test_problem.py prints the worst it meets.
SPECTRUM_RTOL = 1e-14

# Products read H in row blocks of at most this many bytes (one for n <= 362),
# each in the reverse order of the last, so the block still in L2 is read first.
# Edges are multiples of 64 rows, and OpenBLAS takes rows in 4s; the products
# were checked to keep the bits of H @ v at every n up to 512 with OpenBLAS on
# one and two threads, not with other thread counts or other BLAS libraries.
PRODUCT_BLOCK_BYTES = 1 << 20


class QuadraticProblem:
    """Immutable instance of min x'Hx/2 + c'x with H symmetric positive definite.

    H and c are copied, checked finite and frozen at construction. Symmetry
    is enforced by averaging with the transpose after a tolerance check (an
    exactly symmetric H is kept as it is, and an entry whose sum with its
    mirror would overflow is halved first, so H stays finite), and positive
    definiteness is verified with a Cholesky factorization. The instance is
    immutable apart from the order its next product reads H's row blocks in,
    which changes no bit of any result (checked with OpenBLAS on one and two
    threads; see PRODUCT_BLOCK_BYTES).
    """

    def __init__(self, H, c):
        H = np.array(H, dtype=float)
        c = np.array(c, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatchError(f"H must be square, got shape {H.shape}")
        n = H.shape[0]
        if c.shape != (n,):
            raise DimensionMismatchError(
                f"c must have shape ({n},), got {c.shape}"
            )
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")
        for name, a in (("H", H), ("c", c)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        scale = max(1.0, float(np.abs(H).max()))
        with np.errstate(over="ignore"):  # a difference or sum may pass the float range
            asym = float(np.abs(H - H.T).max())
            if asym > 1e-12 * scale:
                raise ValueError(f"H is not symmetric (max asymmetry {asym:.3e})")
            if asym:  # an exactly symmetric H is its own average
                avg = 0.5 * (H + H.T)
                overflow = np.isinf(avg)
                if overflow.any():  # halving first keeps such an entry finite
                    avg[overflow] = 0.5 * H[overflow] + 0.5 * H.T[overflow]
                H = avg
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "H is not positive definite"
            ) from exc
        H.setflags(write=False)
        c.setflags(write=False)
        self._H = H
        self._c = c
        count = -(-H.nbytes // PRODUCT_BLOCK_BYTES)
        edges = [0, *(64 * round(i * n / count / 64) for i in range(1, count)), n]
        self._blocks = tuple((H[a:b], slice(a, b)) for a, b in zip(edges, edges[1:]))

    @property
    def n(self):
        return self._H.shape[0]

    @property
    def H(self):
        return self._H

    @property
    def c(self):
        return self._c

    def _check_vector(self, x, name="x"):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatchError(
                f"{name} must have shape ({self.n},), got {x.shape}"
            )
        return x

    def _product(self, v):
        """Hv, bit for bit ``H @ v``, read in row blocks (see PRODUCT_BLOCK_BYTES)."""
        y = np.empty(self.n)
        for block, rows in self._blocks:
            np.dot(block, v, out=y[rows])  # gemv, as H @ v, with less call overhead
        self._blocks = self._blocks[::-1]  # the block read last is read first next
        return y

    def gradient(self, x):
        """g(x) = Hx + c."""
        g = self._product(self._check_vector(x))
        g += self._c
        return g

    def objective(self, x):
        """f(x) = x'Hx/2 + c'x."""
        x = self._check_vector(x)
        return 0.5 * float(x @ self._product(x)) + float(self._c @ x)

    def hessian_action(self, v):
        """Hv. The curvature oracle handed to routines that never factor H."""
        return self._product(self._check_vector(v, name="v"))

    @cached_property
    def spectrum(self):
        """Read-only (eigenvalues ascending, eigenvectors as columns) of H, from
        ``eigh`` on first use unless :func:`load_problem` set it from a file."""
        evals, evecs = np.linalg.eigh(self._H)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs

    def condition_number(self):
        """Spectral condition number, computed from the eigenvalues."""
        w = self.spectrum[0]
        return float(w[-1] / w[0])


class KrylovOracle:
    """Reference for the space spanned by {g0, Hg0, H^2 g0, ...}.

    The space is determined by which eigenvalues of H the initial gradient
    touches: its dimension (the grade) is the number of distinct eigenvalues
    carrying a nonnegligible component of g0, and the space itself lives
    inside the span of those components. Working in that invariant subspace
    keeps the construction stable; building the basis by repeated
    H-application in full coordinates would exponentially amplify rounding
    noise along any dominant untouched eigendirection and overestimate the
    grade.

    Within the touched span H acts diagonally, so the power basis comes from
    an exact scalar recurrence with full reorthogonalization, and minimizers
    of f over x0 + (k-dimensional span) come from a small projected solve.

    One oracle is the whole reference for a problem and start point: the
    problem's one eigendecomposition (:attr:`QuadraticProblem.spectrum`), the
    only factorization of H it uses, gives the grade, the basis and
    :attr:`solution`.
    :attr:`basis`, :attr:`minimizers`, :attr:`conjugate_directions` and
    :attr:`solution` are computed once, on first use.
    """

    def __init__(self, prob, x0=None):
        self.problem = prob
        if x0 is None:
            x0 = np.zeros(prob.n)
        self.origin = prob._check_vector(x0, name="x0")
        g0 = prob.gradient(self.origin)
        g0_norm = util.norm(g0)

        evals, evecs = prob.spectrum

        tol = RANK_RTOL * max(1.0, norm(prob.H, 1))
        # eigenvalues at most tol apart from their neighbour share a cluster c;
        # g0's component in it is evecs_c (evecs_c' g0), an axis of the span
        starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) > tol)
        components = evecs * (evecs.T @ g0)
        mu = evals
        if starts.size < prob.n:  # else each sum over a cluster is its one term
            components = np.add.reduceat(components, starts, axis=1)
            mu = np.add.reduceat(evals, starts) / np.diff(starts, append=prob.n)
        weights = norm(components, axis=0)
        touched = weights > RANK_RTOL * g0_norm
        self._mu = mu[touched]
        self._w = weights[touched]
        self._axes = components[:, touched] / self._w
        r = self._w.size

        # power basis of the touched span, in its exact diagonal coordinates,
        # with two block Gram-Schmidt passes against the columns so far
        Z = np.zeros((r, r))
        k = 0
        if r:
            Z[:, 0] = self._w / util.norm(self._w)
            k = 1
            while k < r:
                done = Z[:, :k]
                t = self._mu * Z[:, k - 1]
                for _ in range(2):
                    t -= done @ (done.T @ t)
                res = util.norm(t)
                if res <= tol:
                    break
                Z[:, k] = t / res
                k += 1
        self._power = Z[:, :k]
        self.grade = self._power.shape[1]

    @cached_property
    def basis(self):
        """(n, grade) orthonormal basis of the space, its power basis carried
        to full coordinates; read-only."""
        basis = self._axes @ self._power
        basis.setflags(write=False)
        return basis

    @cached_property
    def solution(self):
        """The problem's unique minimizer, -V((V'c) / lambda) for the
        eigendecomposition H = V diag(lambda) V', plus one step of iterative
        refinement: the same formula applied to the residual Hx + c."""
        (lam, V), H, c = self.problem.spectrum, self.problem.H, self.problem.c
        x = -(V @ ((V.T @ c) / lam))
        x -= V @ ((V.T @ (H @ x + c)) / lam)
        x.setflags(write=False)
        return x

    def minimizer(self, k):
        """Minimizer of f over x0 + span of the first k basis vectors."""
        if not 0 <= k <= self.grade:
            raise ValueError(f"k must lie in [0, {self.grade}], got {k}")
        return self.minimizers[:, k].copy()

    @cached_property
    def minimizers(self):
        """(n, grade + 1) array whose column k is ``minimizer(k)``.

        With the whole power basis Z, the projected matrix of the first k
        basis vectors is the leading k x k block of A = Z'diag(mu)Z. For
        A = LL' and the upper triangular W = L'^-1, the inverse of that block
        is W_k W_k' with W_k the leading block of W, and W_k' b_k is the first
        k entries of z = W'b for b = -Z'w. So the coefficients of minimizer k
        are the running sum of the first k columns of W scaled by z, and one
        factorization and one inverse give every k at once.
        """
        Z = self._power
        L = np.linalg.cholesky(Z.T @ (self._mu[:, None] * Z))
        # L' is upper triangular, so gesv does not pivot and W stays upper
        # triangular exactly
        W = np.linalg.inv(L.T)
        z = -(W.T @ (Z.T @ self._w))
        Y = np.zeros((self.grade, self.grade + 1))
        Y[:, 1:] = np.cumsum(W * z, axis=1)
        X = self.origin[:, None] + self._axes @ (Z @ Y)
        X.setflags(write=False)
        return X

    @cached_property
    def conjugate_directions(self):
        """(n, grade) array whose column k is minimizer(k + 1) - minimizer(k):
        mutually H-conjugate directions, each the unit-step exact-line-search
        move between consecutive minimizers; read-only."""
        Q = np.diff(self.minimizers, axis=1)
        Q.setflags(write=False)
        return Q


def krylov_grade(prob, x0=None):
    """Grade of the space generated by the initial gradient: first k where it stops growing."""
    return KrylovOracle(prob, x0).grade


def _dimension(n):
    """``n`` as an int; ValueError unless an integer, not a bool, in [1, MAX_DIMENSION]."""
    if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
            or not 1 <= n <= MAX_DIMENSION):
        raise ValueError(f"n must be an integer in [1, {MAX_DIMENSION}], got {n!r}")
    return int(n)


def _haar_orthogonal(n, rng):
    """Random orthogonal matrix from Householder-based QR of a Gaussian draw."""
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def generate_problem(n, grade=None, *, eigenvalues=None, cond=None, seed=0):
    """Build a random instance with prescribed spectrum and known grade.

    Parameters
    ----------
    n : int
        Dimension, an integer in [1, MAX_DIMENSION] (512), checked before
        anything is drawn.
    grade : int, optional
        Number of distinct eigenvalues the initial gradient touches. Defaults
        to the number of distinct eigenvalues. An integer, not a bool, in
        [1, that number], checked before anything is drawn.
    eigenvalues : array_like, optional
        Finite positive spectrum of length n. Mutually exclusive with cond.
    cond : float, optional
        Target condition number, finite and at least 1; eigenvalues are
        log-spaced in [1, cond]. Both are checked before any draw.
    seed : int
        Seeds all randomness; identical seeds reproduce H and c bit for bit.

    Returns
    -------
    (QuadraticProblem, ndarray)
        The instance and the start point (the origin). The initial gradient
        then equals c, built with nonzero components along exactly ``grade``
        eigendirections of distinct eigenvalue, which forces that grade.
    """
    n = _dimension(n)
    if (eigenvalues is None) == (cond is None):
        raise ValueError("exactly one of eigenvalues and cond must be given")
    if eigenvalues is not None:
        lam = np.sort(np.asarray(eigenvalues, dtype=float))
        if lam.shape != (n,):
            raise ValueError(f"eigenvalues must have length {n}")
        if not np.isfinite(lam).all():
            raise ValueError("eigenvalues must be finite")
    else:
        if (isinstance(cond, bool)
                or not isinstance(cond, (int, float, np.integer, np.floating))
                or not 1.0 <= cond <= float(np.finfo(float).max)):
            raise ValueError(f"cond must be a finite number of at least 1, got {cond!r}")
        lam = np.geomspace(1.0, float(cond), n) if n > 1 else np.ones(1)
    if lam[0] <= 0.0:
        raise ValueError("eigenvalues must be positive")
    if lam[-1] / lam[0] > ILL_CONDITIONED:
        warnings.warn(
            f"condition number {lam[-1] / lam[0]:.2e} exceeds {ILL_CONDITIONED:.0e}; "
            "tolerance calibrations may not hold",
            stacklevel=2,
        )

    # first index of each run of equal eigenvalues in the sorted spectrum
    distinct_starts = [0] + [i for i in range(1, n) if lam[i] != lam[i - 1]]
    if grade is None:
        grade = len(distinct_starts)
    if (not isinstance(grade, (int, np.integer)) or isinstance(grade, bool)
            or not 1 <= grade <= len(distinct_starts)):
        raise ValueError(
            f"grade must be an integer in [1, {len(distinct_starts)}], got {grade!r}")

    rng = np.random.default_rng(seed)
    Q = _haar_orthogonal(n, rng)
    H = (Q * lam) @ Q.T

    chosen = rng.choice(len(distinct_starts), size=grade, replace=False)
    chosen.sort()
    weights = rng.uniform(0.5, 1.5, size=grade) * rng.choice([-1.0, 1.0], size=grade)
    c = np.zeros(n)
    for w, gi in zip(weights, chosen):
        c += w * Q[:, distinct_starts[gi]]

    return QuadraticProblem(H, c), np.zeros(n)


def _start_point(prob, x0):
    """``x0`` as a finite vector of the problem's dimension; ValueError otherwise.

    Kept out of ``_check_vector``, which the solvers call on every gradient.
    """
    x0 = prob._check_vector(x0, name="x0")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    return x0


def problem_to_dict(prob, x0=None, seed=None, spec=None):
    """JSON-ready form: H flattened row-major, vectors as float lists."""
    x0 = _start_point(prob, np.zeros(prob.n) if x0 is None else x0)
    return {
        "n": prob.n,
        "H": prob.H.ravel(order="C").tolist(),
        "c": prob.c.tolist(),
        "x0": x0.tolist(),
        "seed": seed,
        "spec": spec,
    }


def _float_array(values):
    """``np.asarray(values, dtype=float)``, bit for bit, without its pass over
    a list to find the result's shape: a flat list of numbers, as H is, goes
    through ``np.fromiter``, and anything else (nested, text or not a list)
    goes through ``np.asarray``, so it is accepted or refused as before."""
    if isinstance(values, list):
        try:
            return np.fromiter(values, float, len(values))
        except (TypeError, ValueError):
            pass
    return np.asarray(values, dtype=float)


def problem_from_dict(d):
    """Inverse of :func:`problem_to_dict`. Returns (problem, x0, meta)."""
    try:
        n = _dimension(d["n"])
        H = _float_array(d["H"])
        if H.shape != (n * n,):
            raise ValueError(f"H must hold {n * n} row-major entries, got {H.size}")
        prob = QuadraticProblem(H.reshape(n, n), np.asarray(d["c"], dtype=float))
        x0 = d.get("x0")
        x0 = _start_point(prob, np.zeros(n) if x0 is None else x0)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed problem: {exc}") from None
    meta = {"seed": d.get("seed"), "spec": d.get("spec")}
    return prob, x0, meta


def save_problem(path, prob, x0=None, seed=None, spec=None):
    """Write the :func:`problem_to_dict` form as one line of sorted-key JSON.

    The text is orjson's: compact separators, and each float in its shortest
    form that reads back bit for bit (``1e-05`` is spelled ``0.00001``).
    orjson would write a non-finite number as ``null``, so H, c and x0 are
    checked finite before this; an integer seed must fit in 64 bits unsigned.
    ``"spectrum"`` names the (n + 1) x n sidecar written beside it.
    """
    path = Path(path)
    sidecar = path.with_name(f"{path.stem}.spectrum.npy")
    doc = {**problem_to_dict(prob, x0, seed=seed, spec=spec), "spectrum": sidecar.name}
    # orjson encodes the n^2 floats of H about ten times faster than json.dumps
    text = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    np.save(sidecar, np.vstack(prob.spectrum), allow_pickle=False)
    with open(path, "wb") as fh:
        fh.write(text)


# Readers of the .npy header versions that np.save writes.
_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


def _read_npy(fh, name, shape):
    """The float64 C-order array of ``shape`` in the .npy file ``fh``.

    The header is checked before any data is read, because it may claim any
    shape, and ``np.load`` allocates the claimed shape before it finds the
    data short: a claim past the machine's memory raises MemoryError, not
    ValueError. Then exactly the floats of ``shape`` are read, without pickle.
    """
    wrong = ValueError(f"spectrum file {name} must hold a float64 {shape} array")
    magic = fh.read(len(npy.MAGIC_PREFIX))
    if not magic:
        raise ValueError(f"spectrum file {name} is empty")
    if magic != npy.MAGIC_PREFIX:
        raise wrong
    fh.seek(0)
    read_header = _NPY_HEADERS.get(npy.read_magic(fh))
    if read_header is None:
        raise wrong
    claimed, fortran_order, dtype = read_header(fh)
    if dtype.hasobject:
        raise ValueError(f"spectrum file {name} holds objects, which only pickle loads")
    if claimed != shape or fortran_order or dtype != np.dtype("<f8"):
        raise wrong
    count = shape[0] * shape[1]
    A = np.fromfile(fh, dtype="<f8", count=count)
    if A.size != count:
        raise ValueError(f"Failed to read all data of spectrum file {name}: "
                         f"{A.size} of {count} floats")
    return A.reshape(shape)


def _read_spectrum(path, name, H):
    """Checked (eigenvalues, eigenvectors) of H in sidecar ``name`` beside ``path``."""
    if not isinstance(name, str) or "/" in name or "\\" in name or ".." in name:
        raise ValueError(f"spectrum must be a bare file name, got {name!r}")
    n = H.shape[0]
    with open(Path(path).with_name(name), "rb") as fh:
        A = _read_npy(fh, name, (n + 1, n))
    if not np.isfinite(A).all():
        raise ValueError(f"spectrum file {name} must be finite")
    A.setflags(write=False)
    evals, evecs = A[0], A[1:]
    if not (evals[0] > 0.0 and (np.diff(evals) >= 0.0).all()):
        raise ValueError(f"spectrum file {name}: eigenvalues must be positive and ascending")
    tol = SPECTRUM_RTOL * n
    # V'V - I and HV - V diag(lambda), each formed in place in its product
    R = evecs.T @ evecs
    R.flat[::n + 1] -= 1.0
    if np.abs(R, out=R).max() <= tol:
        R = H @ evecs
        R -= evecs * evals
        if np.abs(R, out=R).max() <= tol * max(1.0, np.abs(H).max()):
            return evals, evecs
    raise ValueError(f"spectrum file {name} does not decompose H")


def load_problem(path):
    """Read a file written by :func:`save_problem`, or any JSON of that form."""
    with open(path, "rb") as fh:
        doc = orjson.loads(fh.read())
    prob, x0, meta = problem_from_dict(doc)
    if (name := doc.get("spectrum")) is not None:
        prob.spectrum = _read_spectrum(path, name, prob.H)
    return prob, x0, meta
