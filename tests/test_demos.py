"""The demos run end to end against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_verify_and_distances.py",
    "02_schemes_and_juxtaposition.py",
    "03_uniform_states.py",
    "04_catalog_tour.py",
    "05_search_and_nonexistence.py",  # about 2 s of searches
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
