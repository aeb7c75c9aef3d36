"""Put the benchmark's modules and the simulator sources on the path."""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def clean_env():
    """Restore ``os.environ`` after a test that lets a session change it."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)
