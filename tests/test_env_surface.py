"""Pin the environment surface: every other run setting is an argument."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: deployment settings (cache location, worker count, run log) plus the
#: budget/selection knobs that are ``pytest benchmarks/``'s only controls
ALLOWED = {"CACHE_DIR", "FRESH", "INSTRUCTIONS", "JOBS", "LOG", "WARMUP",
           "WORKLOADS"}


def test_src_reads_only_the_pinned_repro_variables():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_([A-Z_]+)",
                                path.read_text(encoding="utf-8")))
    assert names == ALLOWED
