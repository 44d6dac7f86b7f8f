"""Every library name the benchmark patches still resolves.

The traced run (`bench/spans.py`, its SITES) and the lap clock of the
untraced run (`bench/pipeline.py`, its ITERATION_STEPS) wrap library
functions in place, by owner and attribute name. A refactor that deletes or
renames one of them breaks only those runs; this check makes it fail here.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_patched_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")  # imports pipeline itself
    pipeline = importlib.import_module("pipeline")
    sites = [*spans.SITES, *pipeline.ITERATION_STEPS]
    assert len(sites) > 40
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"patched by bench/ but not found: {missing}"
