"""Per-iteration run records and their JSON form.

Every solver in the package returns an :class:`IterateTrace`. Fields that a
particular solver does not produce (for example sigma for the conjugate
gradient baseline) stay ``None`` and serialize as JSON null.

In oracle mode and in the baselines, a record's ``g`` and ``grad_norm`` are
carried values, g_prev + alpha Hp, which drift from the gradient at ``x`` by
rounding; in matrix-free mode they are evaluated. The terminal
``final.grad_norm`` is always that of the gradient evaluated at ``final.x``.

In the ``qnsubspace-trace-v2`` file form, each vector of an iteration record
(``x``, ``g``, ``p``, ``h_p``, ``q``, ``pN``, ``h_q``, ``h_pN``) is one string:
the base64 text of its little-endian float64 bytes, which keeps every bit and
costs a fraction of writing each float's decimal repr. Scalars, flags,
``meta``, ``warnings``, ``status`` and ``final.x`` stay plain JSON numbers.
Vectors given as number lists, as in ``qnsubspace-trace-v1`` files, load the
same way.

A trace file is one line of sorted-key JSON. Its top level is the text of
``json.dumps``, separators included, so readers can find ``"final": `` in it.
Each iteration record is the compact text of orjson, except a record with a
non-finite scalar, which keeps ``json.dumps``'s ``NaN`` and ``Infinity`` where
orjson would write ``null``. Files load with ``json.load``, which reads both
spellings of a float to the same bits and, unlike orjson, accepts those
literals, as in the ``final.grad_norm`` of a trace that broke down on a
non-finite gradient.
"""

import binascii
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
import orjson

CONVERGED = "converged"
MAX_ITER = "max-iter"
BREAKDOWN = "breakdown"

TRACE_SCHEMA = "qnsubspace-trace-v2"


def _vec(x):
    """Vector from its file form: a base64 float64 string or a number list."""
    if x is None:
        return None
    if isinstance(x, str):
        # what base64.b64decode(x, validate=True) calls
        raw = binascii.a2b_base64(x, strict_mode=True)
        return np.frombuffer(raw, dtype="<f8").astype(float)
    return np.asarray(x, dtype=float)


def _vec_b64(x):
    """Base64 text of the little-endian float64 bytes of a vector."""
    if x is None:
        return None
    raw = np.asarray(x, dtype="<f8").ravel().tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


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


def _record_json(rec):
    """File text of one record, as bytes.

    orjson writes NaN and infinities as null, which would load as a malformed
    record, so a record with a non-finite scalar keeps the stdlib text.
    """
    d = rec.to_dict()
    if (math.isfinite(d["alpha"]) and math.isfinite(d["grad_norm"])
            and (d["sigma"] is None or math.isfinite(d["sigma"]))):
        return orjson.dumps(d, option=orjson.OPT_SORT_KEYS)
    return json.dumps(d, sort_keys=True).encode()


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
        """Write the trace as one line of sorted-key JSON and a newline.

        The text is ``json.dumps(self.to_dict(), sort_keys=True)`` except
        inside the records, each of which is ``orjson.dumps`` with sorted keys
        (compact, and written several times faster) unless a scalar of it is
        not finite; see the module docstring. The text goes out one field and
        one record at a time, so the whole document never exists as one
        string.
        """
        fields = self._fields()
        with open(path, "wb") as fh:
            sep = b"{"
            for key in sorted([*fields, "iterations"]):
                fh.write(b"%s%s: " % (sep, json.dumps(key).encode()))
                sep = b", "
                if key != "iterations":
                    fh.write(json.dumps(fields[key], sort_keys=True).encode())
                    continue
                fh.write(b"[")
                for i, rec in enumerate(self.records):
                    if i:
                        fh.write(b", ")
                    fh.write(_record_json(rec))
                fh.write(b"]")
            fh.write(b"}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
