"""The benchmark's self-check passes against the current source tree.

The benchmark hooks into module `__all__` lists and a few method names; a
rename then fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck():
    p = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stdout + p.stderr
