"""Each script under scripts/ runs to the end with its smallest arguments,
so that a renamed or removed library name fails here and not in use, and
reports a library error as the CLI does."""

import json
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
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


@pytest.mark.parametrize("argv, code, error", [
    # two slices and four steps lose the vortex in transport
    (["adiabatic_slopes.py", "--grid", "8", "--slices", "2", "--tsteps", "4",
      "--eps", "0.9,0.5"], 2, "tracking_loss"),
    (["identity_residuals.py", "--grids", "8", "--slices", "1", "--tsteps",
      "2", "--samples", "1"], 2, "tracking_loss"),
    # a single distinct eps gives no slope
    (["adiabatic_slopes.py", "--grid", "8", "--slices", "8", "--tsteps",
      "32", "--eps", "0.2,0.2"], 1, "ValueError"),
])
def test_script_reports_errors_as_the_cli(argv, code, error):
    """A library or input error ends a script as it ends the CLI: one JSON
    object on stderr and the error's exit code, not a traceback."""
    proc = run_script(argv)
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stderr)["error"] == error


def run_script(argv):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, os.path.join("scripts", argv[0]),
                           *argv[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
