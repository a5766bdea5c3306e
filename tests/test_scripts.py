"""Each script under scripts/ runs to the end with its smallest arguments,
so that a renamed or removed library name fails here and not in use."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv, expect", [
    (["count_table_demo.py"], "det(1 - f*)"),
    (["monodromy_regression.py", "--braids", "1", "--grid", "8",
      "--tsteps", "20"], "1/1 matched"),
    (["vortex_convergence.py", "--grids", "8"], "moment res"),
    (["adiabatic_slopes.py", "--grid", "8", "--slices", "8", "--tsteps",
      "32", "--eps", "0.2,0.1"], "residual slope"),
    (["identity_residuals.py", "--grids", "8", "--slices", "4", "--tsteps",
      "16", "--samples", "2"], "identity0"),
])
def test_script_runs(argv, expect):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.join("scripts", argv[0]),
                           *argv[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
