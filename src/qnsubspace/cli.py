"""Experiment harness for the solvers in this package.

Three subcommands share a JSON experiment spec:

    generate   build problem instances and write them as JSON and .npy
    run        run a method matrix over the problems, write traces, a
               summary table, and a plot-ready convergence curve table
    verify     re-check one saved trace against its problem

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
spec error, 3 solver breakdown.
"""

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

from .algorithm import MATRIX_FREE, ORACLE, SigmaPolicy, StepPolicy, subspace_qn_solve
from .baselines import cg_solve, qn_exact_ls_solve
from .errors import PolicyError
from .problem import (
    KrylovOracle,
    generate_problem,
    krylov_grade,
    load_problem,
    save_problem,
)
from .trace import BREAKDOWN, IterateTrace
from .util import check_run_limits
from .verification import METHODS, verify_trace

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_USAGE = 2
EXIT_BREAKDOWN = 3

DEFAULT_TOL = 1e-9

# Problem files store their seed and spec fields, and their codec holds
# integers in [-2**63, 2**64); a seed must also be nonnegative.
INT_FLOOR, SEED_LIMIT = -(2**63), 2**64

SUMMARY_COLUMNS = (
    "problem_id", "n", "grade", "method", "status", "iterations",
    "terminal_grad_norm", "termination_check", "unit_step_check",
)

CURVE_COLUMNS = ("problem_id", "method", "k", "grad_norm")

_COLUMN_HELP = """\
summary table columns:
  problem_id           instance identifier
  n                    dimension
  grade                dimension of the generated subspace from x0
  method               method descriptor
  status               converged | max-iter | breakdown
  iterations           steps taken
  terminal_grad_norm   final gradient norm (17 significant digits)
  termination_check    pass | fail | n/a   (termination behaviour checks)
  unit_step_check      pass | fail | n/a   (iteration-count checks)

curves.csv columns: problem_id, method, k, grad_norm  (one row per iterate,
plot-ready). Identical spec and seed reproduce both tables byte for byte;
timing lives only in the trace files' metadata.
"""


class SpecError(Exception):
    """Invalid experiment spec; maps to the usage exit code."""


def _fmt(x):
    return format(float(x), ".17g")


def _load_spec(path):
    """The JSON object in the spec file at ``path``, read as UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}")
    _require(isinstance(spec, dict), "spec", "must be a JSON object")
    return spec


def _require(cond, where, msg):
    if not cond:
        raise SpecError(f"{where}: {msg}")


def _read_spec(args, *lists):
    """The spec at ``args.spec`` and its base seed (``--seed``, else the
    spec's ``seed``, else 0), with each top-level field named in ``lists``
    checked to be a non-empty list."""
    spec = _load_spec(args.spec)
    for key in lists:
        _require(isinstance(spec.get(key), list) and spec[key], key,
                 "must be a non-empty list")
    base_seed = args.seed if args.seed is not None else spec.get("seed", 0)
    _require_seed(base_seed, "seed")
    return spec, base_seed


def _require_seed(seed, where):
    """SpecError unless ``seed`` is an integer in [0, SEED_LIMIT) or a list of them."""
    items = seed if isinstance(seed, list) else [seed]
    valid = all(isinstance(s, int) and not isinstance(s, bool) and 0 <= s < SEED_LIMIT
                for s in items)
    _require(valid, where,
             f"must be an integer in [0, 2**64) or a list of them, got {seed!r}")


def _problem_ids(problems):
    """Each problem's id: its own, its file's stem, or ``pNNN``. Checked, with
    each entry's shape and path, before anything is written: an id names one
    file in the output directory, and no two problems share one."""
    pids = []
    for idx, pspec in enumerate(problems):
        where = f"problems[{idx}]"
        _require(isinstance(pspec, dict), where, "must be an object")
        if "path" in pspec:
            path = pspec["path"]
            _require(isinstance(path, str) and path, where,
                     f"path must be a non-empty string, got {path!r}")
        pid = pspec.get("id")
        if pid is None:
            pid = Path(pspec["path"]).stem if "path" in pspec else f"p{idx:03d}"
        else:
            _require(isinstance(pid, str) and pid not in ("", ".", "..")
                     and not any(c in pid for c in "/\\\0"), where,
                     f"id must name one file: a non-empty string other than "
                     f"'.' and '..', without '/', '\\' or NUL, got {pid!r}")
        if pid in pids:
            raise SpecError(f"{where}: id {pid!r} is already the id of "
                            f"problems[{pids.index(pid)}]")
        pids.append(pid)
    return pids


def _resolve_problem(pspec, idx, base_seed):
    """Return (problem, x0, gen_spec, seed_used) of an entry that
    :func:`_problem_ids` has checked."""
    where = f"problems[{idx}]"
    if "path" in pspec:
        path = pspec["path"]
        try:
            prob, x0, meta = load_problem(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise SpecError(f"{where}: cannot load {path}: {exc}")
        return prob, x0, meta.get("spec"), meta.get("seed")

    _require("n" in pspec, where, "needs either 'path' or 'n'")
    n = pspec["n"]
    grade = pspec.get("r", pspec.get("grade"))
    seed = pspec.get("seed")
    if seed is None:
        seed = [base_seed, idx]
    else:
        _require_seed(seed, f"{where}.seed")
    gen_spec = {k: pspec[k] for k in ("n", "r", "grade", "eigenvalues", "cond")
                if k in pspec}
    for key, value in gen_spec.items():
        listed = key == "eigenvalues" and isinstance(value, list)
        for i, v in enumerate(value if listed else [value]):
            _require(not isinstance(v, int) or INT_FLOOR <= v < SEED_LIMIT,
                     f"{where}.{key}" + (f"[{i}]" if listed else ""),
                     f"integer {v} is outside [-2**63, 2**64), the integers "
                     "a problem file holds")
    try:
        prob, x0 = generate_problem(
            n, grade, eigenvalues=pspec.get("eigenvalues"),
            cond=pspec.get("cond"), seed=seed,
        )
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}")
    return prob, x0, gen_spec, seed


class _Method:
    """One resolved method column of the experiment matrix."""

    def __init__(self, mspec, idx):
        where = f"methods[{idx}]"
        _require(isinstance(mspec, dict), where, "must be an object")
        self.idx = idx
        self.kind = mspec.get("kind")
        _require(self.kind in METHODS, where, f"unknown method kind {self.kind!r}")
        if self.kind == "qn-subspace":
            try:
                self.step = StepPolicy.from_spec(mspec.get("step", {}))
                self.sigma = SigmaPolicy.from_spec(mspec.get("sigma", {}))
            except PolicyError as exc:
                raise SpecError(f"{where}: {exc}")
            self.mode = mspec.get("mode", ORACLE)
            _require(self.mode in (ORACLE, MATRIX_FREE), where,
                     f"unknown mode {self.mode!r}")
        else:
            self.step = self.sigma = self.mode = None

    @property
    def label(self):
        if self.kind != "qn-subspace":
            return self.kind
        return (f"qn-subspace({self.mode},step={self.step.descriptor()},"
                f"sigma={self.sigma.descriptor()})")

    def file_tag(self, pid):
        return f"{pid}__m{self.idx:02d}_{self.kind}.json"

    def run(self, prob, x0, tol, max_iter, seed):
        if self.kind == "cg":
            return cg_solve(prob, x0, tol=tol, max_iter=max_iter)
        if self.kind in ("bfgs", "memoryless"):
            return qn_exact_ls_solve(prob, x0, variant=self.kind, tol=tol,
                                     max_iter=max_iter)
        return subspace_qn_solve(
            prob, x0, steps=self.step, sigmas=self.sigma, mode=self.mode,
            tol=tol, max_iter=max_iter, seed=seed,
        )


def _verdicts(trace, prob, x0, oracle):
    """Map check reports onto the two verdict columns."""
    if trace.status == BREAKDOWN:
        return "n/a", "n/a"
    termination = "n/a"
    unit = "n/a"
    for report in verify_trace(trace, prob, x0, oracle):
        verdict = "pass" if report.passed else "fail"
        if report.check in ("newton-onset", "conjugate-baseline"):
            termination = verdict
        else:
            unit = verdict
    return termination, unit


def cmd_generate(args):
    spec, base_seed = _read_spec(args, "problems")
    problems = spec["problems"]
    pids = _problem_ids(problems)
    out_dir = Path(args.out_dir)
    for idx, (pspec, pid) in enumerate(zip(problems, pids)):
        prob, x0, gen_spec, seed_used = _resolve_problem(pspec, idx, base_seed)
        grade = krylov_grade(prob, x0)
        path = out_dir / f"{pid}.json"
        if idx == 0:  # made once an entry resolves: a refused spec leaves none
            out_dir.mkdir(parents=True, exist_ok=True)
        save_problem(path, prob, x0, seed=seed_used, spec=gen_spec)
        print(f"{pid}: n={prob.n} grade={grade} -> {path}")
    return EXIT_PASS


def cmd_run(args):
    spec, base_seed = _read_spec(args, "problems", "methods")
    problems = spec["problems"]
    tol = spec.get("tol", DEFAULT_TOL)
    max_iter = spec.get("max_iter")
    try:
        check_run_limits(tol, max_iter)
    except PolicyError as exc:
        raise SpecError(str(exc))
    methods = [_Method(m, i) for i, m in enumerate(spec["methods"])]
    pids = _problem_ids(problems)

    out_dir = Path(args.out_dir)

    rows = []
    curves = []
    n_breakdown = 0
    n_fail = 0
    for pi, (pspec, pid) in enumerate(zip(problems, pids)):
        prob, x0, gen_spec, seed_used = _resolve_problem(pspec, pi, base_seed)
        # one reference per problem: its eigendecomposition and minimizers
        # serve the grade column and the checks of every method
        oracle = KrylovOracle(prob, x0)
        if pi == 0:  # made once an entry resolves: a refused spec leaves none
            (out_dir / "problems").mkdir(parents=True, exist_ok=True)
            (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        save_problem(out_dir / "problems" / f"{pid}.json", prob, x0,
                     seed=seed_used, spec=gen_spec)
        for method in methods:
            cell_seed = (base_seed, pi, method.idx)
            started = time.perf_counter()
            trace = method.run(prob, x0, tol, max_iter, cell_seed)
            trace.meta["wall_time_ms"] = (time.perf_counter() - started) * 1e3
            trace.meta["problem_id"] = pid
            trace.meta["method_label"] = method.label
            trace.save(out_dir / "traces" / method.file_tag(pid))

            termination, unit = _verdicts(trace, prob, x0, oracle)
            if trace.status == BREAKDOWN:
                n_breakdown += 1
            if "fail" in (termination, unit):
                n_fail += 1
            rows.append({
                "problem_id": pid,
                "n": str(prob.n),
                "grade": str(oracle.grade),
                "method": method.label,
                "status": trace.status,
                "iterations": str(trace.iterations),
                "terminal_grad_norm": _fmt(trace.final_grad_norm),
                "termination_check": termination,
                "unit_step_check": unit,
            })
            for k, rec in enumerate(trace.records):
                curves.append((pid, method.label, k, _fmt(rec.grad_norm)))
            curves.append((pid, method.label, trace.iterations,
                           _fmt(trace.final_grad_norm)))

    # stable, so each problem's rows keep the order of the methods
    rows.sort(key=lambda row: row["problem_id"])
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    curves.sort(key=lambda row: (row[0], row[1], row[2]))
    with open(out_dir / "curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for pid, label, k, gnorm in curves:
            writer.writerow((pid, label, str(k), gnorm))

    print(f"{len(rows)} runs -> {summary_path}")
    if n_breakdown:
        print(f"{n_breakdown} breakdown(s)", file=sys.stderr)
        return EXIT_BREAKDOWN
    if n_fail:
        print(f"{n_fail} failed check(s)", file=sys.stderr)
        return EXIT_CHECK_FAIL
    print("all checks passed")
    return EXIT_PASS


def cmd_verify(args):
    try:
        prob, x0, _meta = load_problem(args.problem)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot load problem {args.problem}: {exc}")
    try:
        trace = IterateTrace.load(args.trace, prob.n)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot load trace {args.trace}: {exc}")

    try:
        reports = verify_trace(trace, prob, x0)
    except ValueError as exc:
        raise SpecError(str(exc))

    failed = 0
    for report in reports:
        print(f"[{report.check}]")
        for line in report.lines():
            print(f"  {line}")
        failed += len(report.failures())
    if trace.status == BREAKDOWN:
        print(f"trace records a breakdown: {trace.reason}")
        return EXIT_BREAKDOWN
    if failed:
        print(f"{failed} check(s) failed")
        return EXIT_CHECK_FAIL
    print("all checks passed")
    return EXIT_PASS


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it cost a quarter of a small ``verify``."""
    parser = argparse.ArgumentParser(
        prog="qnsubspace",
        description="Generate, run, and verify quadratic solver experiments.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_COLUMN_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="write problem instances from a spec file")
    gen.add_argument("--spec", required=True, help="experiment spec JSON")
    gen.add_argument("--out-dir", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None,
                     help="override the spec's base seed")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser(
        "run", help="run the method matrix, write traces and tables",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_COLUMN_HELP,
    )
    run.add_argument("--spec", required=True, help="experiment spec JSON")
    run.add_argument("--out-dir", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's base seed")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser(
        "verify", help="re-check a saved trace against its problem")
    ver.add_argument("--trace", required=True, help="trace JSON file")
    ver.add_argument("--problem", required=True, help="problem JSON file")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, OSError) as exc:
        # an OSError here is an output path that cannot be written; its
        # message names the path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
