"""The traced benchmark run wraps library names; every one must exist."""

import importlib.util
from pathlib import Path

from qnsubspace import algorithm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_trace_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = algorithm.solve_direction
    # raises KeyError when a name the tracer patches is gone
    with spans.Tracer().installed():
        assert algorithm.solve_direction is not original
    assert algorithm.solve_direction is original
