"""Benchmark of the qnsubspace library and CLI, in one process per run.

    python3 perfbench/run.py --workload solve-n512 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run builds its inputs from ``--seed``,
times whole rounds of ops (one closed-loop client) until ``--seconds`` would
be exceeded, checks every output, and prints as its last line one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced round (``--trace 1``). The line before it holds the run's context.
The exit code is 1 when an output is wrong and 2 when the library is missing.
"""

import os

# One BLAS thread, fixed before numpy loads: with two threads on the 2-core
# reference machine a solve pass ran 1.7 times as long, spread wider, and
# even took a different number of iterations.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_seconds():
    """Interpreter start plus library import, timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qnsubspace.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - started


class SpeedProbe:
    """A fixed pure-Python loop, timed between ops off the clock.

    The reference machine is shared: its speed moved by a factor of up to 1.8
    within minutes, and process CPU time moved with it, so raw times of one
    seed cannot be compared with those of the next. The mean time of this
    loop over the run tracks that speed, and the gated times are divided by
    the run's slowdown against the loop's time on the uncontended reference
    machine.
    """

    LOOPS = 100_000
    REFERENCE_S = 0.005
    EVERY_S = 0.5

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self):
        started = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i & 7
        self._last = time.perf_counter()
        self.samples.append(self._last - started)

    def due(self):
        """Sample if the last sample is at least EVERY_S old."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def slowdown(self):
        return statistics.fmean(self.samples) / self.REFERENCE_S


def _environment(work_dir):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "output_dir": str(work_dir.relative_to(ROOT)),
    }


def _round(ops, tally, probe, tracer=None):
    """Run every op once; return the per-op seconds. Checks and probes run off the clock."""
    gc.collect()
    seconds = []
    for index, (run, check) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        started = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - started)
        check(result, tally)
        probe.due()
    return seconds


def _share(part, whole):
    return part / whole if whole else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problems, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "qnsubspace" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import SETS, WORKLOADS, CheckFailed, Tally

    work_dir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir, tiny=args.tiny)
    tracer = Tracer() if args.trace else None
    context = _environment(work_dir)
    probe = SpeedProbe()
    setup_tally, tally = Tally(), Tally()
    try:
        setup_s = []
        for index in range(SETS):
            probe.sample()
            import_s = _import_seconds()
            started = time.perf_counter()
            if tracer is None:
                workload.setup(index)
            else:
                with tracer.installed():
                    workload.setup(index)
            setup_s.append(import_s + time.perf_counter() - started)
            workload.check_setup(index, setup_tally)

        op_seconds, round_s = [], []
        checked_rounds = 1
        if tracer is None:
            while not round_s or sum(round_s) + round_s[-1] <= args.seconds:
                seconds = _round(workload.ops(len(round_s)), tally, probe)
                op_seconds += seconds
                round_s.append(sum(seconds))
            checked_rounds = len(round_s)
        else:
            # an untraced round first, so the traced one can report the overhead
            round_s.append(sum(_round(workload.ops(0), Tally(), probe)))
            with tracer.installed():
                seconds = _round(workload.ops(1), tally, probe, tracer)
            op_seconds += seconds
            round_s.append(sum(seconds))
        _round(workload.recheck(), setup_tally, probe)
    except CheckFailed as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work_dir.parent.rmdir()
    probe.sample()

    failed_frac = _share(tally.cells - tally.ok, tally.cells)
    deciles = statistics.quantiles(op_seconds, n=10)
    slowdown = probe.slowdown()
    context.update({
        "probe_s": {"first": probe.samples[0], "last": probe.samples[-1],
                    "mean": statistics.fmean(probe.samples), "count": len(probe.samples)},
        "slowdown": slowdown,
        "ops": len(op_seconds),
        "op_ms.p50": statistics.median(op_seconds) * 1e3,
        "op_ms.p90": deciles[8] * 1e3,
        "rounds": len(round_s),
        "round_s": round_s,
        "setup_runs_s": setup_s,
        "raw": {"setup_s": statistics.median(setup_s), "wall_s": statistics.median(round_s)},
        "checks": setup_tally.checks + tally.checks,
        "failed_frac": failed_frac,
        "claims_failed_frac": _share(tally.claim_fails, tally.claims),
        "artifact_mb": tally.artifact_bytes / 1e6 / checked_rounds,
    })
    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setup_s) / slowdown, "s"),
            "wall_s": _metric(statistics.median(round_s) / slowdown, "s"),
            # per-op cost differs by a factor of 30 between op kinds and by
            # +-40% between random instances of one kind; the geometric mean
            # is the latency statistic that holds still from seed to seed
            "op_ms.gmean": _metric(math.exp(statistics.fmean(
                math.log(t) for t in op_seconds)) * 1e3 / slowdown, "ms"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = tracer.layer_metrics()
        layers.update({
            "failed_frac": (failed_frac, "ratio"),
            "claims_failed_frac": (context["claims_failed_frac"], "ratio"),
            "artifact_mb": (context["artifact_mb"], "MB"),
            "tracing.overhead_s": (round_s[1] - round_s[0], "s"),
        })
        metrics = {name: _metric(*layers[name]) for name in
                   (m["name"] for m in BENCH["per_layer"])}
        spans_dir = ROOT / "perfbench" / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": True, "attempted": len(op_seconds), "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
