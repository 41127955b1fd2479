"""Drive the experiment harness end to end from Python.

Writes a small experiment spec, runs every method on every problem, and
inspects the artifacts: a summary table, per-iteration convergence curves,
and one verifiable trace file per cell. The same spec and seed always
reproduce the tables and problem files byte for byte, and the traces up to
their measured wall times. The CLI equivalent is

    qnsubspace run --spec spec.json --out-dir out
    qnsubspace verify --trace out/traces/<f>.json --problem out/problems/<p>.json
"""

import csv
import json
import tempfile
from pathlib import Path

from qnsubspace.cli import main

root = Path(tempfile.mkdtemp(prefix="qnsubspace-demo-"))
spec = {
    "seed": 2024,
    "tol": 1e-9,
    "problems": [
        {"n": 8, "r": 5, "cond": 30.0, "id": "mid"},
        {"n": 6, "r": 3, "cond": 8.0, "id": "easy"},
    ],
    "methods": [
        {"kind": "cg"},
        {"kind": "bfgs"},
        {"kind": "qn-subspace", "step": {"kind": "unit"}},
        {"kind": "qn-subspace", "step": {"kind": "unit-after", "start": 5},
         "sigma": {"kind": "uniform"}},
    ],
}
spec_path = root / "spec.json"
spec_path.write_text(json.dumps(spec, indent=2))

out = root / "out"
code = main(["run", "--spec", str(spec_path), "--out-dir", str(out)])
print(f"\nexit code {code}, artifacts under {out}\n")

with open(out / "summary.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
print(f"{'problem':>8} {'method':>22} {'status':>10} {'iters':>5}")
for row in rows:
    print(f"{row['problem_id']:>8} {row['method']:>22} "
          f"{row['status']:>10} {row['iterations']:>5}")

# every trace can be re-checked independently of the run that wrote it;
# method index 2 is the unit-step qn-subspace column
trace_file = out / "traces" / "mid__m02_qn-subspace.json"
print(f"\nverifying {trace_file.name}:")
main(["verify", "--trace", str(trace_file),
      "--problem", str(out / "problems" / "mid.json")])
