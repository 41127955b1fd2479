"""Per-iteration run records, direction histories, and their JSON form.

Every solver in the package returns an :class:`IterateTrace`. Fields that a
particular solver does not produce (for example sigma for the conjugate
gradient baseline) stay ``None`` and serialize as JSON null.

In the ``qnsubspace-trace-v2`` file form, each vector of an iteration record
(``x``, ``g``, ``p``, ``h_p``, ``q``, ``pN``, ``h_q``, ``h_pN``) is one string:
the base64 text of its little-endian float64 bytes, which keeps every bit and
costs a fraction of writing each float's decimal repr. Scalars, flags,
``meta``, ``warnings``, ``status`` and ``final.x`` stay plain JSON numbers.
Vectors given as number lists, as in ``qnsubspace-trace-v1`` files, load the
same way.
"""

import base64
import json
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max-iter"
BREAKDOWN = "breakdown"

TRACE_SCHEMA = "qnsubspace-trace-v2"


def _vec(x):
    """Vector from its file form: a base64 float64 string or a number list."""
    if x is None:
        return None
    if isinstance(x, str):
        raw = base64.b64decode(x, validate=True)
        return np.frombuffer(raw, dtype="<f8").astype(float)
    return np.asarray(x, dtype=float)


def _vec_b64(x):
    """Base64 text of the little-endian float64 bytes of a vector."""
    if x is None:
        return None
    raw = np.asarray(x, dtype="<f8").ravel().tobytes()
    return base64.b64encode(raw).decode("ascii")


def _vec_list(x):
    return None if x is None else np.asarray(x, dtype=float).ravel().tolist()


# The file key of each vector attribute of IterateRecord.
_RECORD_VECTORS = {"x": "x", "g": "g", "p": "p", "h_p": "h_p", "q": "q",
                   "newton_step": "pN", "h_q": "h_q", "h_newton_step": "h_pN"}
_record_vectors = attrgetter(*_RECORD_VECTORS)


@dataclass
class IterateRecord:
    """State recorded at one iteration, taken at the start of the step.

    ``x``, ``g`` and ``p`` describe the step from iterate k; ``q``,
    ``newton_step`` and their Hessian images describe the direction split
    computed after the step was taken. ``collapsed`` marks iterations after
    which the memory holds at most one direction. ``exhausted`` marks
    iterations where the new conjugate direction vanished because the
    generated subspace was already complete; from then on every direction is
    the stored restricted Newton step.
    """

    k: int
    x: np.ndarray
    g: np.ndarray
    p: np.ndarray
    alpha: float
    grad_norm: float
    h_p: np.ndarray | None = None
    q: np.ndarray | None = None
    newton_step: np.ndarray | None = None
    h_q: np.ndarray | None = None
    h_newton_step: np.ndarray | None = None
    sigma: float | None = None
    collapsed: bool | None = None
    exhausted: bool | None = None

    def to_dict(self):
        d = {
            "k": self.k,
            "alpha": float(self.alpha),
            "grad_norm": float(self.grad_norm),
            "sigma": None if self.sigma is None else float(self.sigma),
            # plain bool: numpy's bool type is not JSON serializable
            "collapsed": None if self.collapsed is None else bool(self.collapsed),
            "exhausted": None if self.exhausted is None else bool(self.exhausted),
        }
        d.update(zip(_RECORD_VECTORS.values(), map(_vec_b64, _record_vectors(self))))
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`; ValueError if ``d`` is not of its form."""
        try:
            rec = cls(
                k=int(d["k"]),
                alpha=float(d["alpha"]),
                grad_norm=float(d["grad_norm"]),
                sigma=d.get("sigma"),
                collapsed=d.get("collapsed"),
                exhausted=d.get("exhausted"),
                **{attr: _vec(d.get(key)) for attr, key in _RECORD_VECTORS.items()},
            )
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed iteration record: {exc}") from None
        if rec.x is None or rec.g is None or rec.p is None:
            raise ValueError(f"record {rec.k} lacks x, g or p")
        return rec


@dataclass
class IterateTrace:
    """Full record of a solver run: per-iteration records plus terminal state."""

    records: list = field(default_factory=list)
    status: str = MAX_ITER
    iterations: int = 0
    reason: str = ""
    final_x: np.ndarray | None = None
    final_grad_norm: float | None = None
    meta: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == CONVERGED

    def finish(self, status, x, grad_norm, reason=""):
        """Record the terminal state after the last record; returns the trace."""
        self.status = status
        self.iterations = len(self.records)
        self.reason = reason
        self.final_x = x
        self.final_grad_norm = float(grad_norm)
        return self

    def dimension(self):
        """Length of every vector the trace holds; None if it holds none.

        Raises ValueError unless all of them are 1-D and of one length.
        """
        vectors = [self.final_x]
        for r in self.records:
            vectors += _record_vectors(r)
        shapes = {v.shape for v in vectors if v is not None}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError(f"vectors are not 1-D of one length: {sorted(shapes)}")
        return shapes.pop()[0] if shapes else None

    def to_dict(self):
        d = self._fields()
        # one object per iteration lives under this key
        d["iterations"] = [r.to_dict() for r in self.records]
        return d

    def _fields(self):
        """Every top-level field except the per-iteration records."""
        return {
            "schema": TRACE_SCHEMA,
            "meta": self.meta,
            "status": {
                "kind": self.status,
                "iterations": self.iterations,
                "reason": self.reason or None,
            },
            "final": {
                "x": _vec_list(self.final_x),
                "grad_norm": None
                if self.final_grad_norm is None
                else float(self.final_grad_norm),
            },
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`; ValueError if ``d`` is not of its form."""
        try:
            status = d["status"]
            final = d.get("final", {})
            trace = cls(
                records=[IterateRecord.from_dict(r) for r in d["iterations"]],
                status=status["kind"],
                iterations=int(status["iterations"]),
                reason=status.get("reason") or "",
                final_x=_vec(final.get("x")),
                final_grad_norm=final.get("grad_norm"),
                meta={**d.get("meta", {})},  # TypeError unless an object
                warnings=list(d.get("warnings", [])),
            )
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed trace: {exc}") from None
        trace.dimension()  # rejects vectors of mixed lengths
        return trace

    def save(self, path):
        """Write ``json.dumps(self.to_dict(), sort_keys=True)`` and a newline.

        The text goes out one field and one record at a time, so the whole
        document never exists as one string. ``json.dumps`` without an indent
        runs the C encoder; ``json.dump`` to a file never does.
        """
        fields = self._fields()
        with open(path, "w") as fh:
            sep = "{"
            for key in sorted([*fields, "iterations"]):
                fh.write(f"{sep}{json.dumps(key)}: ")
                sep = ", "
                if key != "iterations":
                    fh.write(json.dumps(fields[key], sort_keys=True))
                    continue
                fh.write("[")
                for i, rec in enumerate(self.records):
                    if i:
                        fh.write(", ")
                    fh.write(json.dumps(rec.to_dict(), sort_keys=True))
                fh.write("]")
            fh.write("}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class DirectionHistory:
    """An ordered set of directions together with their Hessian images."""

    directions: list = field(default_factory=list)
    h_images: list = field(default_factory=list)

    def append(self, p, h_p):
        p = np.asarray(p, dtype=float)
        h_p = np.asarray(h_p, dtype=float)
        if p.shape != h_p.shape:
            raise ValueError("direction and Hessian image must have equal shapes")
        self.directions.append(p)
        self.h_images.append(h_p)

    def __len__(self):
        return len(self.directions)

    def matrices(self):
        """Stack into (P, HP) with one column per direction."""
        if not self.directions:
            return None, None
        return np.column_stack(self.directions), np.column_stack(self.h_images)

    def conjugacy_defect(self):
        """max over i != j of |p_i^T H p_j| / (||H p_i|| ||p_j||); 0.0 if < 2 directions."""
        if len(self.directions) < 2:
            return 0.0
        P, HP = self.matrices()
        denom = np.outer(np.linalg.norm(HP, axis=0), np.linalg.norm(P, axis=0))
        keep = denom != 0.0
        np.fill_diagonal(keep, False)
        if not keep.any():
            return 0.0
        return float(np.max(np.abs(HP.T @ P)[keep] / denom[keep]))
