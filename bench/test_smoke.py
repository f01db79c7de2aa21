"""The harness's own test: ``python -m pytest bench`` from the repository root.

Runs every workload at smoke size, one repeat each, traced and untraced, and
relies on smoke mode's assertions: every metric is printed with its unit,
error_rate is 0, the bypass checks hold and the traced RK4 step count equals
the harness's event-grid model.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
