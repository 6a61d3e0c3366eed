"""Let the tests that start `python -m qps.cli` in a child process import qps
from src/ as the test process does (pyproject.toml sets pytest's pythonpath)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
