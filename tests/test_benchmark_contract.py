"""The benchmark's use of formdec, run as a test.

fdbench/ drives formdec through its public names: its tracer rebinds every
public function in every formdec namespace, and its workloads call the
library directly.  This runs the tracer's install/uninstall self-check, one
op of the flat decompose, Minkowski and cli-readme workloads and the
decompose op on three embedded-torus inputs in a fresh interpreter, so that
an API or import change that breaks the benchmark, or a missed check, fails
here.  fdbench/ is only read.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import selftest
problems = selftest.check_restore()
import workloads
flat = workloads._build_decompose(workloads._grid(2, 32), 1, pool=1)
mink = workloads.build_minkowski(1, pool=1)
readme = workloads.build_cli(1, pool=1)
emb = workloads._build_decompose(
    workloads._grid(2, 64, metric="embedded-torus", R=2.0, r=1.0), 1, pool=3
)
print(json.dumps({
    "restore": problems,
    "decompose": workloads.op_decompose(flat, 0),
    "minkowski": workloads.op_minkowski(mink, 0),
    "embedded": [workloads.op_decompose(emb, i) for i in range(3)],
    "cli": workloads.op_cli(readme, 0),
}))
"""


def test_benchmark_workloads_run():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "fdbench")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {
        "restore": [], "decompose": [], "minkowski": [], "embedded": [[], [], []], "cli": []
    }
