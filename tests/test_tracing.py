"""The benchmark's tracing wrappers find every name they wrap in miniq."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_name_the_benchmark_wraps_exists():
    # perfbench/tracing.py replaces functions by name in miniq's modules;
    # renaming one would break the traced benchmark runs.  A subprocess
    # keeps the wrappers out of this test run.
    code = ("import tracing\n"
            "tracing.install(tracing.Tracer())\n"
            "tracing.install_client(tracing.Tracer())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
