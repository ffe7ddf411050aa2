"""Smoke tests for the ``examples/`` walkthroughs.

Each example is importable (its logic lives in ``main()`` behind an
``if __name__`` guard) and parameterized by module-level constants, so the
tests load the module, shrink the workload knobs, and run ``main()`` to
completion — asserting the walkthroughs stay executable as the library
evolves.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: (module file, {constant: tiny value}) per smoke-tested example.
SMOKE_EXAMPLES = [
    # quickstart's CAP run uses min_quota=5, so keep >= 5 executors.
    ("quickstart.py", {"NUM_EXECUTORS": 6, "NUM_JOBS": 4}),
    ("multi_grid_comparison.py", {"NUM_EXECUTORS": 5, "NUM_JOBS": 3}),
    (
        "geo_federation.py",
        {"EXECUTORS_PER_REGION": 4, "NUM_JOBS": 6, "SEED": 0},
    ),
    (
        "region_outage.py",
        {"EXECUTORS_PER_REGION": 4, "NUM_JOBS": 6, "SEED": 0},
    ),
    (
        "streaming_service.py",
        {"NUM_EXECUTORS": 4, "NUM_JOBS": 8, "MEAN_INTERARRIVAL_S": 10.0},
    ),
]


def load_example(filename: str):
    path = EXAMPLES_DIR / filename
    name = f"example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


@pytest.mark.parametrize(
    "filename,overrides",
    SMOKE_EXAMPLES,
    ids=[f for f, _ in SMOKE_EXAMPLES],
)
def test_example_runs_cleanly(filename, overrides, capsys):
    module = load_example(filename)
    for constant, value in overrides.items():
        assert hasattr(module, constant), (
            f"{filename} lost its {constant} knob; update SMOKE_EXAMPLES"
        )
        setattr(module, constant, value)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{filename} printed nothing"


def test_example_workloads_are_tiny():
    """The overrides actually shrink the examples (guards test runtime)."""
    for _, overrides in SMOKE_EXAMPLES:
        for constant, value in overrides.items():
            if "JOBS" in constant or "EXECUTORS" in constant:
                assert value <= 8
