"""The benchmark's three workloads and the checks on their outputs.

Each workload builds ``SETS`` input sets from the seed, one per set-up, and
turns them into a list of ops. An op is a callable timed on its own; its
check runs after the clock stops, tallies the outcome and raises
:class:`CheckFailed` when the program's output is wrong.

``solve-n512``  library solves at n = 512: the direction solve dominates.
``grid-cli``    ``qnsubspace run`` on one-problem specs: trace writing and
                verification dominate.
``verify-cli``  ``qnsubspace verify`` on traces written during set-up: trace
                and problem loading plus verification, no solver.
"""

import contextlib
import csv
import io
import json
import shutil

import numpy as np
from numpy.linalg import norm

from qnsubspace import algorithm, baselines, cli, problem
from qnsubspace.algorithm import MATRIX_FREE, ORACLE, SigmaPolicy, StepPolicy
from qnsubspace.errors import DegenerateBasisError, NotPositiveDefiniteError, PolicyError
from qnsubspace.trace import BREAKDOWN, CONVERGED

# Independent input sets per run. Set-up is timed once per set, so setup_s
# is a median of three; the ops of all sets make up one round, so every
# round averages over three draws of each problem shape.
SETS = 3

TOL = cli.DEFAULT_TOL

# Exceptions a solver may raise on a numerically hard instance; the CLI
# records them as breakdowns and solve-n512 counts them as failed cells.
SOLVER_ERRORS = (DegenerateBasisError, NotPositiveDefiniteError, PolicyError)

# n x grade x cond of the CLI workloads' problems, and the tiny version for tests.
GRID_SHAPE = ((64, 128), (8, 16, 32), (10.0, 100.0))
TINY_GRID_SHAPE = ((16,), (2, 4), (10.0,))

GRID_METHODS = [
    {"kind": "cg"},
    {"kind": "bfgs"},
    {"kind": "memoryless"},
    {"kind": "qn-subspace", "step": {"kind": "unit"}, "mode": ORACLE},
    {"kind": "qn-subspace", "step": {"kind": "unit"}, "mode": MATRIX_FREE},
    {"kind": "qn-subspace", "step": {"kind": "unit-after", "start": 8},
     "mode": MATRIX_FREE},
    {"kind": "qn-subspace", "step": {"kind": "exact"}, "mode": ORACLE},
]


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Tally:
    """Outcome counts over the checked ops."""

    def __init__(self):
        self.cells = 0          # solver cells, or verify calls
        self.ok = 0             # converged cells, or verify calls with a verdict
        self.claims = 0         # cells with a verdict, or findings
        self.claim_fails = 0    # cells with a fail verdict, or FAIL findings
        self.checks = 0         # correctness checks that ran
        self.artifact_bytes = 0


def _check_gradient(H, c, x0, x, where):
    """Independent check of a converged cell: ||Hx + c|| <= tol (1 + ||g0||)."""
    residual = norm(H @ x + c)
    limit = TOL * (1.0 + norm(H @ x0 + c))
    if not residual <= limit:
        raise CheckFailed(f"{where}: converged with ||Hx + c|| = {residual:.3e} > {limit:.3e}")


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        yield out


class Workload:
    """Set-up, ops and checks of one workload; the hooks below default to nothing."""

    def check_setup(self, index, tally):
        """Check what set-up ``index`` produced, off the set-up clock."""

    def recheck(self):
        """Untimed ops run after the timed rounds, for their checks only."""
        return []


class SolveN512(Workload):
    """Six solver configurations on each problem, budget 3 x grade.

    Methods resolve through the module attributes at call time, so the
    traced run sees them through its wrappers.
    """

    name = "solve-n512"
    methods = (
        ("cg", lambda prob, x0, r, seed: baselines.cg_solve(
            prob, x0, tol=TOL, max_iter=3 * r)),
        ("unit/oracle", lambda prob, x0, r, seed: algorithm.subspace_qn_solve(
            prob, x0, mode=ORACLE, tol=TOL, max_iter=3 * r, seed=seed)),
        ("unit/matrix-free", lambda prob, x0, r, seed: algorithm.subspace_qn_solve(
            prob, x0, mode=MATRIX_FREE, tol=TOL, max_iter=3 * r, seed=seed)),
        ("unit-after/matrix-free", lambda prob, x0, r, seed: algorithm.subspace_qn_solve(
            prob, x0, steps=StepPolicy.unit_after(r), mode=MATRIX_FREE, tol=TOL,
            max_iter=3 * r, seed=seed)),
        ("newton-at/oracle", lambda prob, x0, r, seed: algorithm.subspace_qn_solve(
            prob, x0, sigmas=SigmaPolicy.newton_at(r - 2), mode=ORACLE, tol=TOL,
            max_iter=3 * r, seed=seed)),
        ("exact/matrix-free", lambda prob, x0, r, seed: algorithm.subspace_qn_solve(
            prob, x0, steps=StepPolicy.exact_line_search(), mode=MATRIX_FREE,
            tol=TOL, max_iter=3 * r, seed=seed)),
    )

    def __init__(self, seed, work_dir, tiny=False):
        self.seed = seed
        self.n = 48 if tiny else 512
        self.grades = (2, 4) if tiny else (8, 16, 32, 64)
        self.conds = (10.0, 100.0)
        self.problems = []

    def setup(self, index):
        for j, (r, cond) in enumerate((r, c) for r in self.grades for c in self.conds):
            seed = [self.seed, index, j]
            prob, x0 = problem.generate_problem(self.n, r, cond=cond, seed=seed)
            self.problems.append((f"s{index}-n{self.n}-g{r}-c{cond:g}", prob, x0, r, seed))

    def ops(self, round_index):
        return [self._op(p, label, solve) for p in self.problems
                for label, solve in self.methods]

    def _op(self, entry, label, solve):
        pid, prob, x0, r, seed = entry

        def run():
            try:
                return solve(prob, x0, r, seed)
            except SOLVER_ERRORS as exc:
                return exc

        def check(trace, tally):
            tally.cells += 1
            if isinstance(trace, Exception) or trace.status != CONVERGED:
                return
            _check_gradient(prob.H, prob.c, x0, trace.final_x, f"{pid} {label}")
            tally.checks += 1
            tally.ok += 1

        return run, check


def _grid_specs(seed, index, ns, grades, conds, spec_dir):
    """Write one single-problem ``run`` spec per problem shape of set ``index``."""
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    shapes = [(n, r, c) for n in ns for r in grades for c in conds]
    for j, (n, r, cond) in enumerate(shapes):
        spec = {
            "problems": [{"id": f"n{n}-g{r}-c{cond:g}", "n": n, "grade": r,
                          "cond": cond, "seed": [seed, index, j]}],
            "methods": GRID_METHODS,
        }
        path = spec_dir / f"op{j:02d}.json"
        path.write_text(json.dumps(spec))
        paths.append(path)
    return paths


def _expected_exit(row):
    """Exit code ``qnsubspace verify`` must give for a cell of summary.csv."""
    if row["status"] == BREAKDOWN:
        return cli.EXIT_BREAKDOWN
    if "fail" in (row["termination_check"], row["unit_step_check"]):
        return cli.EXIT_CHECK_FAIL
    return cli.EXIT_PASS


class GridRun:
    """One ``qnsubspace run`` call on a one-problem spec, and its checks."""

    def __init__(self, spec, out_dir, seed):
        self.spec = spec
        self.out_dir = out_dir
        self.seed = seed

    def run(self):
        with _quiet():
            return cli.main(["run", "--spec", str(self.spec), "--out-dir",
                             str(self.out_dir), "--seed", str(self.seed)])

    def rows(self):
        with open(self.out_dir / "summary.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def traces(self):
        """Trace files in method order: one problem per run, so the zero-padded
        method index orders them like the summary rows."""
        return sorted((self.out_dir / "traces").iterdir())

    def check(self, code, tally, reference=None):
        """Tally the cells; check exit code, converged gradients, reproducibility.

        ``reference`` holds the tables of an earlier run of the same spec;
        when given, the tables must match it byte for byte and the gradient
        checks, already made on that run, are skipped. Returns the tables.
        """
        tables = tuple((self.out_dir / name).read_bytes()
                       for name in ("summary.csv", "curves.csv"))
        rows = self.rows()
        # the run exits with its worst cell: breakdown (3), failed check (1), pass (0)
        expected = max(_expected_exit(row) for row in rows)
        if code != expected:
            raise CheckFailed(f"{self.spec.name}: run exited {code}, summary implies {expected}")
        tally.checks += 1
        if reference is not None:
            if tables != reference:
                raise CheckFailed(f"{self.spec.name}: tables differ from an earlier run")
            tally.checks += 1
        for row, trace in zip(rows, self.traces(), strict=True):
            tally.cells += 1
            verdicts = (row["termination_check"], row["unit_step_check"])
            if verdicts != ("n/a", "n/a"):
                tally.claims += 1
                tally.claim_fails += "fail" in verdicts
            if row["status"] != CONVERGED:
                continue
            tally.ok += 1
            if reference is None:
                self._check_converged(row, trace)
                tally.checks += 1
        tally.artifact_bytes += sum(p.stat().st_size for p in self.out_dir.rglob("*")
                                    if p.is_file())
        return tables

    def _check_converged(self, row, trace):
        with open(self.out_dir / "problems" / f"{row['problem_id']}.json") as fh:
            data = json.load(fh)
        n = data["n"]
        # traces run to megabytes; decode only the "final" object
        text = trace.read_text()
        key = '"final": '
        final, _ = json.JSONDecoder().raw_decode(text, text.index(key) + len(key))
        x = np.asarray(final["x"])
        _check_gradient(np.asarray(data["H"]).reshape(n, n), np.asarray(data["c"]),
                        np.asarray(data["x0"]), x, f"{self.spec.name} {row['method']}")


class GridCli(Workload):
    """``qnsubspace run`` over n in {64, 128} x grade in {8, 16, 32} x cond in {10, 100}."""

    name = "grid-cli"

    def __init__(self, seed, work_dir, tiny=False):
        self.seed = seed
        self.work_dir = work_dir
        self.shape = TINY_GRID_SHAPE if tiny else GRID_SHAPE
        self.specs = []
        self.tables = {}

    def setup(self, index):
        self.specs += _grid_specs(self.seed, index, *self.shape,
                                  self.work_dir / "specs" / f"set{index}")

    def ops(self, round_index):
        return [self._op(spec, self.work_dir / f"round{round_index}" / spec.parent.name / spec.stem)
                for spec in self.specs]

    def recheck(self):
        """Untimed re-runs whose tables must match the first run byte for byte.

        One spec per set, each of a different shape, two of them with
        failing cells.
        """
        return [self._op(spec, self.work_dir / "recheck" / spec.parent.name / spec.stem)
                for spec in self.specs[::17]]

    def _op(self, spec, out_dir):
        grid = GridRun(spec, out_dir, self.seed)

        def check(code, tally):
            tables = grid.check(code, tally, self.tables.get(spec))
            self.tables.setdefault(spec, tables)
            shutil.rmtree(out_dir)

        return grid.run, check


class VerifyCli(Workload):
    """``qnsubspace verify`` on every trace that a grid-cli pass wrote in set-up."""

    name = "verify-cli"

    def __init__(self, seed, work_dir, tiny=False):
        self.seed = seed
        self.work_dir = work_dir
        self.shape = TINY_GRID_SHAPE if tiny else GRID_SHAPE
        self.runs = {}
        self.cells = []

    def setup(self, index):
        specs = _grid_specs(self.seed, index, *self.shape, self.work_dir / "specs" / f"set{index}")
        self.runs[index] = []
        for spec in specs:
            grid = GridRun(spec, self.work_dir / "traces" / f"set{index}" / spec.stem, self.seed)
            self.runs[index].append((grid, grid.run()))

    def check_setup(self, index, tally):
        """Check this set's grid runs and list one verify cell per trace."""
        for grid, code in self.runs.pop(index):
            grid.check(code, tally)
            for row, trace in zip(grid.rows(), grid.traces(), strict=True):
                self.cells.append((trace, grid.out_dir / "problems" / f"{row['problem_id']}.json",
                                   _expected_exit(row)))

    def ops(self, round_index):
        return [self._op(*cell) for cell in self.cells]

    def _op(self, trace, prob, expected):
        def run():
            with _quiet() as out:
                code = cli.main(["verify", "--trace", str(trace), "--problem", str(prob)])
            return code, out.getvalue()

        def check(result, tally):
            code, text = result
            tally.cells += 1
            if code != expected:
                raise CheckFailed(f"{trace.name}: verify exited {code}, run's verdict "
                                  f"implies {expected}")
            tally.checks += 1
            tally.ok += 1
            lines = [line.strip() for line in text.splitlines()]
            tally.claims += sum(line.startswith(("PASS ", "FAIL ")) for line in lines)
            tally.claim_fails += sum(line.startswith("FAIL ") for line in lines)

        return run, check


WORKLOADS = {w.name: w for w in (SolveN512, GridCli, VerifyCli)}
