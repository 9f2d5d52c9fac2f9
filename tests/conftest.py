import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# command-line tests start `python -m nkvol.cli` in child processes, which see
# the checkout's sources only through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from hypothesis import settings

# property tests draw the same examples on every run and keep no example database
settings.register_profile("nkvol", derandomize=True, database=None, deadline=None)
settings.load_profile("nkvol")
