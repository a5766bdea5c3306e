"""The benchmark's tracer wraps library functions by name.

``perfbench/worker.install_tracer`` raises ``LookupError`` when a function
it wraps has been renamed or removed, which would fail every traced
benchmark run; this test catches that in the test suite instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_install_tracer_finds_every_trace_point():
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "import worker; worker.install_tracer()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
