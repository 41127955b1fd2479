"""Per-iteration run records and their JSON form.

Every solver in the package returns an :class:`IterateTrace`. Fields that a
particular solver does not produce (for example sigma for the conjugate
gradient baseline) stay ``None``.

In oracle mode and in the baselines, a record's ``g`` and ``grad_norm`` are
carried values, g_prev + alpha Hp, which drift from the gradient at ``x`` by
rounding; in matrix-free mode they are evaluated. The terminal
``final.grad_norm`` is always that of the gradient evaluated at ``final.x``.

A trace file is one line of sorted-key JSON. Its top level is the text of
``json.dumps``, separators included, so readers can find ``"final": `` in it.
In the ``qnsubspace-trace-v3`` form, ``iterations`` is compact orjson text
of one column per record field, and ``k``. ``k`` and ``exhausted`` are lists
with one entry per record, written for readers and never read back as facts:
``k`` is 0..K-1, which a reader checks are integers but keeps no value of,
as a record's iteration is its position; ``exhausted`` is the solver's
report, and verification reads exhaustion from a zero q. A file holds only what
verification reads: its ``g``, ``h_p``, ``h_q`` and ``h_pN`` columns are
null, so in-memory records keep those fields and loaded ones hold None. Each
other float field (``alpha``, ``grad_norm``, ``sigma``, ``x``, ``p``, ``q``,
``pN``) is null if no record has it, else ``{"data": ..., "rows": ...}``:
the base64 text of the little-endian float64 bytes of its values, which
keeps every bit (NaN and infinities included), and the records that have it,
or null for all. So ``NaN`` and ``Infinity`` literals appear only in
``final``, as in the ``final.grad_norm`` of a run that broke down on a
non-finite gradient, and ``json.load`` reads them. ``qnsubspace-trace-v2``
files, with one object per record and each vector one base64 string, v1
files, with number lists, and v3 files that still hold the four columns load
as well. Every form becomes one value list per record field, and one row
builder makes the records of them. In every form, a key that names no record
field is ignored, and ``status.iterations`` is written from the number of
records and never read.
"""

import binascii
import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np
import orjson

from .util import norm

CONVERGED = "converged"
MAX_ITER = "max-iter"
BREAKDOWN = "breakdown"

TRACE_SCHEMA = "qnsubspace-trace-v3"


def _floats(text):
    """Writable float64 array of base64 text of little-endian float64 bytes."""
    # what base64.b64decode(text, validate=True) calls
    raw = binascii.a2b_base64(text, strict_mode=True)
    return np.frombuffer(raw, dtype="<f8").astype(float)


def _vec(x):
    """Vector from a number list (``final.x``, v1) or base64 text (v2)."""
    if x is None:
        return None
    if isinstance(x, str):
        return _floats(x)
    return np.asarray(x, dtype=float)


def _vec_list(x):
    return None if x is None else np.asarray(x, dtype=float).ravel().tolist()


# The file key of each vector attribute of IterateRecord.
_RECORD_VECTORS = {"x": "x", "g": "g", "p": "p", "h_p": "h_p", "q": "q",
                   "newton_step": "pN", "h_q": "h_q", "h_newton_step": "h_pN"}
_record_vectors = attrgetter(*_RECORD_VECTORS)

_SCALARS = ("alpha", "grad_norm", "sigma")
# JSON-list columns, with the type that makes a value JSON serializable
_LISTS = {"k": int, "exhausted": bool}
# Fields every record of a file holds, and fields that no check reads,
# which a file holds as null columns.
_REQUIRED = ("x", "p", "alpha", "grad_norm")
_UNWRITTEN = ("g", "h_p", "h_q", "h_newton_step")


@dataclass
class IterateRecord:
    """State recorded at one iteration, taken at the start of the step.

    ``x``, ``g`` and ``p`` describe the step from iterate k, the record's
    position in the trace; ``q``, ``newton_step`` and their Hessian images
    describe the direction split computed after the step was taken.
    ``exhausted`` is the solver's report of an iteration whose new conjugate
    direction q vanished, exactly zero, because the generated subspace was
    already complete; from then on every direction is the stored restricted
    Newton step.
    """

    x: np.ndarray
    g: np.ndarray | None  # None where a file left it out
    p: np.ndarray
    alpha: float
    grad_norm: float
    h_p: np.ndarray | None = None
    q: np.ndarray | None = None
    newton_step: np.ndarray | None = None
    h_q: np.ndarray | None = None
    h_newton_step: np.ndarray | None = None
    sigma: float | None = None
    exhausted: bool | None = None


# (file key, attribute) of every column, in file key order; ``k``, each
# record's position, is no record field.
_COLUMNS = sorted([("k", "k")] + [(_RECORD_VECTORS.get(f.name, f.name), f.name)
                                  for f in fields(IterateRecord)])


def _float_values(column, count, scalar):
    """Per-record values of a v3 float column, None where a record lacks it:
    floats for a ``scalar`` field, else row views of one writable array."""
    values = [None] * count
    if column is None:
        return values
    rows = column["rows"]
    if rows is None:
        rows = range(count)
    elif (any(type(i) is not int for i in rows) or rows != sorted(set(rows))
          or rows and not 0 <= rows[0] <= rows[-1] < count):
        raise ValueError(f"rows {rows!r} are not increasing indices below {count}")
    data = _floats(column["data"])
    # ValueError unless the data holds one value or one vector per row
    data = data.reshape(len(rows)).tolist() if scalar else data.reshape(len(rows), -1)
    for i, value in zip(rows, data):
        values[i] = value
    return values


def _column_values(columns):
    """Per-column value lists of a v3 ``iterations`` object; ValueError if a
    column is malformed. A vector column fixes only its own width:
    ``IterateTrace.dimension`` compares them."""
    count = len(columns["k"])

    def values(attr):
        key = _RECORD_VECTORS.get(attr, attr)
        try:
            if attr in _LISTS:
                out = columns[key]
                if not isinstance(out, list) or len(out) != count:
                    raise ValueError(f"does not hold {count} entries")
                return out
            return _float_values(columns[key], count, attr in _SCALARS)
        except ValueError as exc:
            raise ValueError(f"column {key}: {exc}") from None

    return {attr: values(attr) for _, attr in _COLUMNS}


def _record_values(records):
    """Per-column value lists of a v1 or v2 record list, every vector decoded."""
    values = {attr: [_vec(r.get(key)) for r in records]
              for attr, key in _RECORD_VECTORS.items()}
    for attr in _SCALARS:
        values[attr] = [_number(r.get(attr), attr) for r in records]
    for attr in _LISTS:
        values[attr] = [r.get(attr) for r in records]
    return values


def _number(value, name):
    """A JSON number as a float, or None; ValueError naming ``name`` otherwise."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{name} {value!r} is not a number")
    return None if value is None else float(value)


def _records(values):
    """The records of per-column value lists, every file form's one row
    builder; ValueError if a record lacks a field that every record holds,
    or if an iteration number is not a JSON integer."""
    for k in values["k"]:
        if type(k) is not int:  # a bool is no iteration number either
            raise ValueError(f"column k: entry {k!r} is not an integer")
    for attr in _REQUIRED:
        if any(v is None for v in values[attr]):
            raise ValueError(f"a record lacks {attr}")
    # in field order, the order of IterateRecord's positional arguments
    return [IterateRecord(*row)
            for row in zip(*[values[f.name] for f in fields(IterateRecord)])]


@dataclass
class IterateTrace:
    """Full record of a solver run: per-iteration records plus terminal state.

    ``iterations`` is the number of records, not a field: no caller or file
    can set a count that disagrees with them.
    """

    records: list = field(default_factory=list)
    status: str = MAX_ITER
    reason: str = ""
    final_x: np.ndarray | None = None
    final_grad_norm: float | None = None
    meta: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.records)

    def finish(self, status, x, grad_norm, reason=""):
        """Record the terminal state after the last record; returns the trace."""
        self.status = status
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
        """The v3 document of the trace, which its file holds (see the module)."""
        return {**self._fields(), "iterations": dict(self._columns())}

    def _fields(self):
        """The top-level document, with null in place of the records."""
        return {
            "iterations": None,
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

    def _columns(self):
        """(file key, column) of every record field in key order."""
        for key, attr in _COLUMNS:
            if attr in _UNWRITTEN:
                yield key, None
                continue
            values = (range(len(self.records)) if attr == "k"
                      else [getattr(r, attr) for r in self.records])
            if attr in _LISTS:
                yield key, [v if v is None else _LISTS[attr](v) for v in values]
                continue
            rows = [i for i, v in enumerate(values) if v is not None]
            raw = np.asarray([values[i] for i in rows], dtype="<f8").tobytes()
            column = {"data": binascii.b2a_base64(raw, newline=False).decode(),
                      "rows": None if len(rows) == len(values) else rows}
            yield key, column if rows else None

    @classmethod
    def from_dict(cls, d, n=None):
        """Inverse of :meth:`to_dict`, which also reads the v1 and v2 forms;
        ValueError if ``d`` is of none of them, or if ``n`` is given and its
        vectors are of another length."""
        try:
            status = d["status"]
            final = d.get("final", {})
            records = d["iterations"]  # v3 columns, or a v1 or v2 list
            records = _records(_column_values(records) if isinstance(records, dict)
                               else _record_values(records))
            trace = cls(
                records=records,
                status=status["kind"],
                reason=status.get("reason") or "",
                final_x=_vec(final.get("x")),
                final_grad_norm=_number(final.get("grad_norm"), "final.grad_norm"),
                meta={**d.get("meta", {})},  # TypeError unless an object
                warnings=list(d.get("warnings", [])),
            )
        # OverflowError: a JSON integer past the float range in a number field
        except (TypeError, AttributeError, KeyError, OverflowError) as exc:
            raise ValueError(f"malformed trace: {exc}") from None
        dimension = trace.dimension()  # rejects vectors of mixed lengths
        if n is not None and dimension not in (None, n):
            raise ValueError(f"vectors of length {dimension}, problem dimension {n}")
        return trace

    def save(self, path):
        """Write the trace as one line of sorted-key JSON and a newline: the
        text of ``json.dumps(self.to_dict(), sort_keys=True)``, but the
        columns are ``orjson.dumps`` text, several times faster on base64 and
        exact, as no float of a column is outside base64. The unread ``g``,
        ``h_p``, ``h_q`` and ``h_pN`` columns are null."""
        # "final", the only key before "iterations", holds no key of that name
        head, tail = json.dumps(self._fields(), sort_keys=True).split(
            '"iterations": null', 1)
        columns = orjson.dumps(dict(self._columns()), option=orjson.OPT_SORT_KEYS)
        with open(path, "wb") as fh:
            fh.write(b'%s"iterations": %s%s\n' % (head.encode(), columns, tail.encode()))

    @classmethod
    def load(cls, path, n=None):
        """The trace a file holds, as :meth:`from_dict` reads it."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh), n)


class Run:
    """A solver run under way: its trace, and the stopping rule of every solver.

    The gradient g0 at the start x is evaluated here; a run converges once
    ||g|| <= tol * (1 + ||g0||), the ``threshold``. A gradient carried as
    g + alpha Hp after a step stands only while its norm is above the
    threshold and finite, else :meth:`gradient_at` evaluates it. A run ends
    at the point its gradient was last taken at; :meth:`finish` evaluates a
    carried one there, and the run converged if it passes.
    """

    def __init__(self, prob, x, tol, meta):
        self._prob = prob
        self.g0 = prob.gradient(x)
        self.g0_norm = norm(self.g0)
        self.threshold = tol * (1.0 + self.g0_norm)
        self.trace = IterateTrace(meta=meta)
        # the point of the last gradient, its norm, and whether it was carried
        self._x, self._g_norm, self._carried = x, self.g0_norm, False

    def gradient_at(self, x, carried=None):
        """(g, ||g||) at x: ``carried`` if the rule keeps it, else evaluated."""
        g_norm = math.nan if carried is None else norm(carried)  # NaN fails the rule
        self._carried = self.threshold < g_norm < math.inf
        if not self._carried:
            carried = self._prob.gradient(x)
            g_norm = norm(carried)
        self._x, self._g_norm = x, g_norm
        return carried, g_norm

    def finish(self, status, reason=""):
        """End the run at the point of its last gradient."""
        g_norm = self._g_norm
        if self._carried:
            g_norm = norm(self._prob.gradient(self._x))
            if g_norm <= self.threshold:
                status, reason = CONVERGED, ""
        return self.trace.finish(status, self._x, g_norm, reason)
