"""Layer spans for the traced benchmark run, recorded from outside the library.

:class:`Tracer` wraps the public functions each layer exposes, on the names
their callers bind, so a span opens and closes at every layer boundary the
workload crosses. Spans stay in memory as ``[name, start, end, parent, op,
amount]`` lists, where ``amount`` is the exact count the call added
(iterations run, bytes written). :meth:`Tracer.layer_metrics` folds them into
the per-layer metrics and :meth:`Tracer.dump` writes them out when the run
ends.
"""

import contextlib
import functools
import json
import os
import time

from qnsubspace import algorithm, baselines, cli, problem, verification
from qnsubspace.problem import KrylovOracle, QuadraticProblem
from qnsubspace.trace import IterateTrace

MB = 1e6

# Op id of spans recorded while the workload builds its inputs.
SETUP = "setup"


def _iterations(_args, trace):
    return trace.iterations


def _problem_bytes(args, _result):
    return os.path.getsize(args[0])


def _trace_bytes(args, _result):
    trace, path = args
    # the wall-time field is the only part of a trace file whose size varies
    # from run to run; leaving it out keeps the byte count exact
    wall = trace.meta.get("wall_time_ms")
    return os.path.getsize(path) - (len(json.dumps(wall)) if wall is not None else 0)


class Tracer:
    """In-memory span recorder; ``op`` tags the spans with the op under way."""

    def __init__(self):
        self.spans = []
        self.op = SETUP
        self._open = []

    def wrap(self, name, fn, amount=None):
        """``fn`` recording one span per call; ``amount(args, result)`` gives its count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent, self.op, 0]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()
            if amount is not None:
                span[5] = amount(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block, then restore."""
        solvers = {
            "subspace_qn_solve": (algorithm, "algorithm.solve"),
            "cg_solve": (baselines, "baselines.cg"),
            "qn_exact_ls_solve": (baselines, "baselines.qn"),
        }
        patches = [
            (algorithm, "solve_direction", "approximation.solve", None),
            (algorithm, "build_two_vector", "approximation.build", None),
            (algorithm, "SpanApprox", "approximation.build", None),
            (problem, "generate_problem", "problem.generate", None),
            (cli, "generate_problem", "problem.generate", None),
            (cli, "krylov_grade", "problem.grade", None),
            (cli, "save_problem", "problem.save", _problem_bytes),
            (cli, "load_problem", "problem.load", None),
            (cli, "verify_trace", "verification.verify", None),
            (cli, "main", "cli.main", None),
            (verification, "KrylovOracle", "verification.oracle", None),
            (KrylovOracle, "minimizer", "verification.minimizer", None),
            (QuadraticProblem, "gradient", "problem.gradient", None),
            (QuadraticProblem, "hessian_action", "problem.hessian_action", None),
            (IterateTrace, "save", "trace.save", _trace_bytes),
        ]
        for attr, (module, name) in solvers.items():
            patches += [(module, attr, name, _iterations), (cli, attr, name, _iterations)]

        saved = []
        try:
            for owner, attr, name, amount in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, amount))
            original_load = IterateTrace.__dict__["load"]
            saved.append((IterateTrace, "load", original_load))
            IterateTrace.load = classmethod(
                self.wrap("trace.load", original_load.__func__))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _totals(self, keep):
        """Per span name over the spans whose op passes ``keep``:
        [calls, summed ms, summed self ms, summed amount]."""
        inner_s = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _amount in self.spans:
            if parent >= 0:
                inner_s[parent] += end - start
        totals = {}
        for (name, start, end, _parent, op, amount), inner in zip(self.spans, inner_s):
            if keep(op):
                row = totals.setdefault(name, [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += (end - start) * 1e3
                row[2] += (end - start - inner) * 1e3
                row[3] += amount
        return totals

    def layer_metrics(self):
        """Per-layer metric values, as {name: (value, unit)}.

        Every metric covers the spans of the workload's ops. The exception
        is ``problem.generate_ms``, which also covers set-up, because input
        generation is set-up work on two of the three workloads.
        """
        ops = self._totals(lambda op: op != SETUP)
        generate = self._totals(lambda op: True).get("problem.generate", [0, 0.0])

        def total(field, *names):
            return sum(ops[n][field] for n in names if n in ops)

        def per(amount, count):
            return amount / count if count else 0.0

        qn_iters = total(3, "algorithm.solve")
        base_iters = total(3, "baselines.cg", "baselines.qn")
        qn_iter_ms = per(total(1, "algorithm.solve"), qn_iters)
        cg_iter_ms = per(total(1, "baselines.cg"), total(3, "baselines.cg"))
        base_ms = total(1, "baselines.cg", "baselines.qn")
        return {
            "approximation.solves": (total(0, "approximation.solve"), "count"),
            "approximation.solve_ms": (total(1, "approximation.solve"), "ms"),
            "approximation.builds": (total(0, "approximation.build"), "count"),
            "approximation.build_ms": (total(1, "approximation.build"), "ms"),
            "problem.grad_evals": (total(0, "problem.gradient"), "count"),
            "problem.hess_actions": (total(0, "problem.hessian_action"), "count"),
            "problem.matvec_ms": (total(1, "problem.gradient", "problem.hessian_action"), "ms"),
            "problem.generate_ms": (generate[1], "ms"),
            "problem.grade_ms": (total(1, "problem.grade"), "ms"),
            "problem.save_ms": (total(1, "problem.save"), "ms"),
            "problem.saved_mb": (total(3, "problem.save") / MB, "MB"),
            "problem.load_ms": (total(1, "problem.load"), "ms"),
            "algorithm.solve_ms": (total(1, "algorithm.solve"), "ms"),
            "algorithm.self_ms": (total(2, "algorithm.solve"), "ms"),
            "algorithm.iters": (qn_iters, "count"),
            "algorithm.iter_ms": (qn_iter_ms, "ms"),
            "algorithm.iter_over_cg": (per(qn_iter_ms, cg_iter_ms), "ratio"),
            "baselines.solve_ms": (base_ms, "ms"),
            "baselines.iters": (base_iters, "count"),
            "baselines.iter_ms": (per(base_ms, base_iters), "ms"),
            "trace.save_ms": (total(1, "trace.save"), "ms"),
            "trace.saved_mb": (total(3, "trace.save") / MB, "MB"),
            "trace.load_ms": (total(1, "trace.load"), "ms"),
            "verification.verify_ms": (total(1, "verification.verify"), "ms"),
            "verification.oracle_builds": (total(0, "verification.oracle"), "count"),
            "verification.minimizer_calls": (total(0, "verification.minimizer"), "count"),
            "cli.self_ms": (total(2, "cli.main"), "ms"),
        }

    def dump(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
